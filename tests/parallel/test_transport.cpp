// Cross-process transport backends (shm, tcp) exercised in-process: each
// rank of the world runs on its own std::thread and constructs its own
// ProcessGroup, exactly as separate processes would. That shape is real for
// both backends — the shm segment is mapped once per group, the tcp mesh
// connects over loopback — while keeping the test a single binary that
// sanitizers can see end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "md/lj.hpp"
#include "parallel/distributed_md.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/transport.hpp"

namespace dp::par {
namespace {

/// Globally unique shm segment token: two test binaries under ctest -j must
/// not collide in /dev/shm, and two tests in this binary must not reuse a
/// segment that a crashed predecessor left behind.
std::string unique_segment(const char* test) {
  static std::atomic<int> counter{0};
  std::ostringstream os;
  os << "dp_test_" << test << "_" << ::getpid() << "_"
     << counter.fetch_add(1, std::memory_order_relaxed);
  return os.str();
}

TransportConfig backend_config(TransportKind kind, int world, const char* test) {
  TransportConfig cfg;
  cfg.kind = kind;
  cfg.world = world;
  cfg.timeout_seconds = 60.0;
  if (kind == TransportKind::Shm) {
    cfg.rendezvous = unique_segment(test);
  } else {
    std::ostringstream os;
    os << "127.0.0.1:" << pick_free_tcp_port();
    cfg.rendezvous = os.str();
  }
  return cfg;
}

/// Runs `fn(comm)` on every rank of a multi-process-shaped world, one
/// ProcessGroup per thread. Exceptions become test failures (gtest cannot
/// propagate them across threads).
void run_world(const TransportConfig& base,
               const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(base.world));
  for (int r = 0; r < base.world; ++r) {
    threads.emplace_back([&, r] {
      TransportConfig cfg = base;
      cfg.rank = r;
      try {
        ProcessGroup pg(cfg);
        fn(pg.comm());
      } catch (const std::exception& e) {
        ADD_FAILURE() << "rank " << r << ": " << e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// P2p + collective smoke shared by both backends.
void backend_smoke(const TransportConfig& base) {
  run_world(base, [&](Communicator& comm) {
    const int rank = comm.rank();
    const int size = comm.size();
    ASSERT_EQ(size, base.world);

    // Ring exchange: send right, receive from the left, tagged by sender.
    const std::vector<double> payload{static_cast<double>(rank), 2.5 * rank};
    const int right = (rank + 1) % size;
    const int left = (rank + size - 1) % size;
    comm.send_vec(right, 100 + rank, payload);
    const auto got = comm.recv_vec<double>(left, 100 + left);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], static_cast<double>(left));
    EXPECT_EQ(got[1], 2.5 * left);

    // Out-of-order tag matching through the nonblocking API: post the
    // receive for the *second* message first.
    if (rank == 0) {
      for (int r = 1; r < size; ++r) {
        Request late = comm.irecv(r, 8);
        Request early = comm.irecv(r, 7);
        const auto a = early.take_vec<int>();
        const auto b = late.take_vec<int>();
        ASSERT_EQ(a.size(), 1u);
        ASSERT_EQ(b.size(), 1u);
        EXPECT_EQ(a[0], r);
        EXPECT_EQ(b[0], 10 * r);
      }
    } else {
      comm.isend_vec(0, 7, std::vector<int>{rank});
      comm.isend_vec(0, 8, std::vector<int>{10 * rank});
    }

    comm.barrier();

    // Collectives: deterministic results on every rank.
    EXPECT_EQ(comm.allreduce_sum(static_cast<std::uint64_t>(rank) + 1),
              static_cast<std::uint64_t>(size) * (size + 1) / 2);
    EXPECT_EQ(comm.allreduce_max(static_cast<double>(rank)),
              static_cast<double>(size - 1));
    const auto summed = comm.allreduce_sum(std::vector<double>{1.0, static_cast<double>(rank)});
    ASSERT_EQ(summed.size(), 2u);
    EXPECT_EQ(summed[0], static_cast<double>(size));
    EXPECT_EQ(summed[1], static_cast<double>(size * (size - 1) / 2));

    const auto bcast = comm.broadcast(
        rank == 1 ? std::vector<double>{3.0, 4.0} : std::vector<double>{}, 1);
    ASSERT_EQ(bcast.size(), 2u);
    EXPECT_EQ(bcast[0], 3.0);
    EXPECT_EQ(bcast[1], 4.0);

    const auto gathered = comm.gatherv(std::vector<double>{static_cast<double>(rank)}, 0);
    if (rank == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(size));
      for (int r = 0; r < size; ++r) EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r);
    } else {
      EXPECT_TRUE(gathered.empty());
    }

    // Counter sanity: this rank moved messages, and on a cross-process
    // backend they crossed the wire.
    const CommStats cs = comm.stats();
    EXPECT_GT(cs.messages, 0u);
    EXPECT_GT(cs.wire_bytes, 0u);
    EXPECT_STREQ(cs.transport, base.kind == TransportKind::Shm ? "shm" : "tcp");
  });
}

TEST(Transport, ShmPointToPointAndCollectives) {
  backend_smoke(backend_config(TransportKind::Shm, 2, "smoke2"));
  backend_smoke(backend_config(TransportKind::Shm, 4, "smoke4"));
}

TEST(Transport, TcpPointToPointAndCollectives) {
  backend_smoke(backend_config(TransportKind::Tcp, 2, "smoke2"));
  backend_smoke(backend_config(TransportKind::Tcp, 4, "smoke4"));
}

/// Operands above 2^53 have low bits a double cannot hold: the integer
/// allreduce must return the exact sum on every rank.
void u64_allreduce_exact(const TransportConfig& base) {
  run_world(base, [&](Communicator& comm) {
    const std::uint64_t big = (std::uint64_t{1} << 53) + 1;
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const auto n = static_cast<std::uint64_t>(comm.size());
    EXPECT_EQ(comm.allreduce_sum(big + 2 * r), n * big + n * (n - 1));
    // Exact modulo 2^64: n x 2^62 wraps for n = 4.
    EXPECT_EQ(comm.allreduce_sum((std::uint64_t{1} << 62) + r),
              n * (std::uint64_t{1} << 62) + n * (n - 1) / 2);
  });
}

TEST(Transport, U64AllreduceExactAbove2Pow53) {
  u64_allreduce_exact(backend_config(TransportKind::Shm, 4, "u64"));
  u64_allreduce_exact(backend_config(TransportKind::Tcp, 4, "u64"));
}

/// Rank r contributes kParts[r] after sleeping (2 - r) x 20 ms, so the
/// contributions reach rank 0 in reverse rank order. Every backend must fold
/// in rank order, (0.1 + 0.2) + 0.3, which differs in the last bit from the
/// arrival-order (0.3 + 0.2) + 0.1.
void expect_rank_order_fold(Communicator& comm) {
  constexpr double kParts[3] = {0.1, 0.2, 0.3};
  ASSERT_EQ(comm.size(), 3);
  ASSERT_NE((kParts[0] + kParts[1]) + kParts[2], (kParts[2] + kParts[1]) + kParts[0]);
  const int r = comm.rank();
  std::this_thread::sleep_for(std::chrono::milliseconds(20 * (2 - r)));
  EXPECT_EQ(comm.allreduce_sum(kParts[r]), (kParts[0] + kParts[1]) + kParts[2]) << "rank " << r;
}

TEST(Transport, AllreduceFoldsInRankOrderOnEveryBackend) {
  run_parallel(3, expect_rank_order_fold);
  run_world(backend_config(TransportKind::Shm, 3, "fold"), expect_rank_order_fold);
  run_world(backend_config(TransportKind::Tcp, 3, "fold"), expect_rank_order_fold);
}

/// The tentpole acceptance check, in-binary: an MD run over a cross-process
/// backend must produce forces bitwise identical to the in-process threads
/// world, because every rank executes the same code over the same bytes —
/// only the transport underneath changes.
void parity_vs_threads(TransportKind kind, const char* test) {
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.08, 51);
  md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = 8;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.rebuild_every = 5;
  sc.thermo_every = 4;
  sc.seed = 99;

  DistributedOptions opts;
  opts.grid = {2, 1, 1};
  opts.gather_state = true;

  const auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };
  const auto reference = run_distributed_md(2, sys, factory, sc, opts);
  ASSERT_EQ(reference.final_force.size(), sys.atoms.size());

  const TransportConfig base = backend_config(kind, 2, test);
  DistributedRunResult cross;
  Mutex cross_mu;
  run_world(base, [&](Communicator& comm) {
    auto r = run_distributed_md_rank(comm, sys, factory, sc, opts);
    if (comm.rank() == 0) {
      MutexLock lock(cross_mu);
      cross = std::move(r);
    }
  });

  ASSERT_EQ(cross.final_force.size(), reference.final_force.size());
  for (std::size_t i = 0; i < reference.final_force.size(); ++i) {
    // Bitwise: EXPECT_EQ on doubles is exact equality, which is the claim.
    EXPECT_EQ(cross.final_force[i].x, reference.final_force[i].x) << "atom " << i;
    EXPECT_EQ(cross.final_force[i].y, reference.final_force[i].y) << "atom " << i;
    EXPECT_EQ(cross.final_force[i].z, reference.final_force[i].z) << "atom " << i;
  }
  EXPECT_EQ(cross.neighbor_rebuilds, reference.neighbor_rebuilds);
  ASSERT_EQ(cross.thermo.size(), reference.thermo.size());
  for (std::size_t i = 0; i < reference.thermo.size(); ++i) {
    EXPECT_EQ(cross.thermo[i].potential, reference.thermo[i].potential);
    EXPECT_EQ(cross.thermo[i].temperature, reference.thermo[i].temperature);
  }
}

TEST(Transport, ShmMdParityWithThreads) { parity_vs_threads(TransportKind::Shm, "parity"); }

TEST(Transport, TcpMdParityWithThreads) { parity_vs_threads(TransportKind::Tcp, "parity"); }

TEST(Transport, BootstrapTimeoutFailsCleanly) {
  // A lone rank of a two-rank tcp world: nobody ever dials the rendezvous
  // listener, so the bootstrap must give up after the configured timeout
  // with a DP_CHECK error — not hang.
  TransportConfig cfg = backend_config(TransportKind::Tcp, 2, "timeout");
  cfg.rank = 0;
  cfg.timeout_seconds = 0.5;
  EXPECT_THROW(ProcessGroup pg(cfg), Error);
}

TEST(Transport, ShmBootstrapTimeoutFailsCleanly) {
  TransportConfig cfg = backend_config(TransportKind::Shm, 2, "timeout");
  cfg.rank = 0;
  cfg.timeout_seconds = 0.5;
  EXPECT_THROW(ProcessGroup pg(cfg), Error);
}

TEST(Transport, EnvConfigRoundTrip) {
  ::setenv("DP_TRANSPORT", "tcp", 1);
  ::setenv("DP_RANK", "3", 1);
  ::setenv("DP_WORLD", "8", 1);
  ::setenv("DP_RENDEZVOUS", "127.0.0.1:4242", 1);
  ::setenv("DP_TIMEOUT", "2.5", 1);
  const TransportConfig cfg = transport_config_from_env();
  EXPECT_EQ(cfg.kind, TransportKind::Tcp);
  EXPECT_EQ(cfg.rank, 3);
  EXPECT_EQ(cfg.world, 8);
  EXPECT_EQ(cfg.rendezvous, "127.0.0.1:4242");
  EXPECT_EQ(cfg.timeout_seconds, 2.5);
  for (const char* v : {"DP_TRANSPORT", "DP_RANK", "DP_WORLD", "DP_RENDEZVOUS", "DP_TIMEOUT"})
    ::unsetenv(v);
}

}  // namespace
}  // namespace dp::par
