#include "parallel/minimpi.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace dp::par {
namespace {

TEST(MiniMpi, RankAndSize) {
  std::atomic<int> seen{0};
  run_parallel(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
    seen.fetch_add(1 << comm.rank());
  });
  EXPECT_EQ(seen.load(), 0b1111);
}

TEST(MiniMpi, PointToPointRing) {
  run_parallel(5, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    std::vector<int> payload{comm.rank() * 10, comm.rank() * 10 + 1};
    comm.send_vec(next, 7, payload);
    const auto got = comm.recv_vec<int>(prev, 7);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev * 10);
    EXPECT_EQ(got[1], prev * 10 + 1);
  });
}

TEST(MiniMpi, SendToSelf) {
  run_parallel(2, [](Communicator& comm) {
    std::vector<double> v{1.5, 2.5};
    comm.send_vec(comm.rank(), 3, v);
    EXPECT_EQ(comm.recv_vec<double>(comm.rank(), 3), v);
  });
}

TEST(MiniMpi, TagsKeepMessagesApart) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> a{1}, b{2};
      comm.send_vec(1, 10, a);
      comm.send_vec(1, 20, b);
    } else {
      // Receive in reverse send order: matching must be by tag.
      EXPECT_EQ(comm.recv_vec<int>(0, 20).at(0), 2);
      EXPECT_EQ(comm.recv_vec<int>(0, 10).at(0), 1);
    }
  });
}

TEST(MiniMpi, AllreduceSumScalar) {
  run_parallel(6, [](Communicator& comm) {
    const double total = comm.allreduce_sum(static_cast<double>(comm.rank() + 1));
    EXPECT_DOUBLE_EQ(total, 21.0);  // 1+2+...+6
  });
}

TEST(MiniMpi, AllreduceSumVector) {
  run_parallel(3, [](Communicator& comm) {
    std::vector<double> x{static_cast<double>(comm.rank()), 1.0};
    const auto total = comm.allreduce_sum(x);
    EXPECT_DOUBLE_EQ(total[0], 3.0);
    EXPECT_DOUBLE_EQ(total[1], 3.0);
  });
}

TEST(MiniMpi, AllreduceU64ExactAbove2Pow53) {
  // 2^53 + 1 is not a double: an integer sum that travelled as one would
  // lose the low bits.
  run_parallel(4, [](Communicator& comm) {
    const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
    const auto r = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(big + 2 * r), 4 * big + 12);
    // 4 x 2^62 wraps to 0: the sum is exact modulo 2^64.
    EXPECT_EQ(comm.allreduce_sum((std::uint64_t{1} << 62) + r), std::uint64_t{6});
  });
}

TEST(MiniMpi, AllreduceMax) {
  run_parallel(4, [](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_max(static_cast<double>(comm.rank())), 3.0);
  });
}

TEST(MiniMpi, RepeatedCollectivesDoNotInterfere) {
  run_parallel(3, [](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      const double total = comm.allreduce_sum(static_cast<double>(round));
      EXPECT_DOUBLE_EQ(total, 3.0 * round);
    }
  });
}

TEST(MiniMpi, BarrierOrdersPhases) {
  std::atomic<int> phase1{0};
  run_parallel(4, [&](Communicator& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(MiniMpi, StatsCountTraffic) {
  const auto stats = run_parallel(2, [](Communicator& comm) {
    std::vector<double> v(100, 1.0);
    comm.send_vec(1 - comm.rank(), 0, v);
    comm.recv_vec<double>(1 - comm.rank(), 0);
  });
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.bytes, 2u * 100 * sizeof(double));
}

TEST(MiniMpi, RankExceptionPropagates) {
  EXPECT_THROW(run_parallel(1,
                            [](Communicator&) {
                              throw Error("rank failure");
                            }),
               Error);
}

TEST(MiniMpi, NonblockingRing) {
  run_parallel(5, [](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    // Post the receive before the send: irecv must not consume anything
    // until completion is observed.
    Request rx = comm.irecv(prev, 7);
    std::vector<int> payload{comm.rank() * 10, comm.rank() * 10 + 1};
    Request tx = comm.isend_vec(next, 7, payload);
    EXPECT_TRUE(tx.done());  // buffered transport: sends are born complete
    const auto got = rx.take_vec<int>();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev * 10);
    EXPECT_EQ(got[1], prev * 10 + 1);
  });
}

TEST(MiniMpi, TestPollsUntilMessageArrives) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      Request rx = comm.irecv(1, 5);
      // Rank 1 sends only after seeing our handshake, so at least the first
      // test() observes the in-flight state on this side of the barrier.
      EXPECT_FALSE(rx.done());
      comm.barrier();
      while (!rx.test()) {
      }
      EXPECT_TRUE(rx.done());
      EXPECT_EQ(rx.take_vec<double>(), (std::vector<double>{3.25}));
    } else {
      comm.barrier();
      comm.isend_vec(0, 5, std::vector<double>{3.25});
    }
  });
}

TEST(MiniMpi, RequestsCompleteOutOfPostingOrder) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      Request a = comm.irecv(1, 1);
      Request b = comm.irecv(1, 2);
      // Completion order follows message availability, not posting order.
      EXPECT_EQ(b.take_vec<int>().at(0), 22);
      EXPECT_EQ(a.take_vec<int>().at(0), 11);
    } else {
      comm.isend_vec(0, 2, std::vector<int>{22});
      comm.isend_vec(0, 1, std::vector<int>{11});
    }
  });
}

TEST(MiniMpi, NonblockingZeroSizeMessage) {
  run_parallel(2, [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    Request rx = comm.irecv(peer, 9);
    comm.isend_vec(peer, 9, std::vector<double>{});
    EXPECT_TRUE(rx.take_vec<double>().empty());
  });
}

TEST(MiniMpi, MovedFromRequestIsEmpty) {
  run_parallel(1, [](Communicator& comm) {
    comm.isend_vec(0, 4, std::vector<int>{1, 2, 3});
    Request a = comm.irecv(0, 4);
    Request b = std::move(a);
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move state is defined
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(b.take_vec<int>(), (std::vector<int>{1, 2, 3}));
  });
}

TEST(MiniMpi, SingleRankWorldWorks) {
  run_parallel(1, [](Communicator& comm) {
    EXPECT_EQ(comm.size(), 1);
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(5.0), 5.0);
    comm.barrier();
  });
}

}  // namespace
}  // namespace dp::par
