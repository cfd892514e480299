// Concurrency stress storms for the minimpi runtime and the observability
// layer.
//
// These tests exist to give ThreadSanitizer and AddressSanitizer real
// schedules to bite on: many ranks hammering the mailbox queues, the shared
// barrier, the reduction buffer, the sharded TimerRegistry, and the
// metrics/trace collectors — all at once, with readers (snapshot / flush /
// clear) racing the writers. They assert functional correctness too, so a
// lost wakeup or a torn value fails even without a sanitizer.
//
// They carry the ctest label "stress": the plain CI job skips them with
// -LE stress, the sanitizer jobs run everything (see docs/STATIC_ANALYSIS.md).

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "md/box.hpp"
#include "md/neighbor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/minimpi.hpp"
#include "tab/table.hpp"

namespace {

using dp::par::run_parallel;

// Sized so a TSan run finishes in seconds on one core but still drives
// thousands of lock acquisitions per mailbox/shard.
constexpr int kRanks = 8;
constexpr int kRounds = 60;

TEST(MinimpiStress, PointToPointStorm) {
  // Every rank sends kRounds tagged messages to every other rank, then
  // drains them in a rank-rotated order so receives from all sources
  // interleave in the mailbox scan.
  const auto stats = run_parallel(kRanks, [](dp::par::Communicator& comm) {
    const int me = comm.rank();
    const int n = comm.size();
    for (int round = 0; round < kRounds; ++round) {
      for (int peer = 0; peer < n; ++peer) {
        std::vector<std::uint64_t> payload(1 + static_cast<std::size_t>(round % 7),
                                           static_cast<std::uint64_t>(me * 1000 + round));
        comm.send_vec(peer, round, payload);
      }
    }
    std::uint64_t checksum = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 1; k <= n; ++k) {
        const int peer = (me + k) % n;
        const auto got = comm.recv_vec<std::uint64_t>(peer, round);
        ASSERT_EQ(got.size(), 1 + static_cast<std::size_t>(round % 7));
        for (auto v : got) {
          ASSERT_EQ(v, static_cast<std::uint64_t>(peer * 1000 + round));
          checksum += v;
        }
      }
    }
    ASSERT_GT(checksum, 0u);
  });
  EXPECT_EQ(stats.messages,
            static_cast<std::uint64_t>(kRanks) * kRanks * kRounds);
}

TEST(MinimpiStress, CollectiveStorm) {
  // Back-to-back collectives with no interleaved barriers of our own:
  // the barrier generation counter and the shared reduction buffer get
  // reused immediately, which is exactly where a happens-before bug in the
  // triple-barrier allreduce protocol would surface.
  run_parallel(kRanks, [](dp::par::Communicator& comm) {
    const int me = comm.rank();
    const int n = comm.size();
    for (int round = 0; round < kRounds; ++round) {
      const double sum = comm.allreduce_sum(static_cast<double>(me + round));
      ASSERT_DOUBLE_EQ(sum, n * (n - 1) / 2.0 + n * round);

      const double mx = comm.allreduce_max(static_cast<double>((me + round) % n));
      ASSERT_DOUBLE_EQ(mx, n - 1);

      const std::vector<double> vec(3, static_cast<double>(me));
      const auto vsum = comm.allreduce_sum(vec);
      ASSERT_EQ(vsum.size(), 3u);
      ASSERT_DOUBLE_EQ(vsum[0], n * (n - 1) / 2.0);

      const int root = round % n;
      const auto bc = comm.broadcast({static_cast<double>(round), 2.5}, root);
      ASSERT_EQ(bc.size(), 2u);
      ASSERT_DOUBLE_EQ(bc[0], round);

      const auto gathered = comm.gatherv({static_cast<double>(me)}, root);
      if (me == root) {
        ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
        for (int r = 0; r < n; ++r) ASSERT_DOUBLE_EQ(gathered[static_cast<std::size_t>(r)], r);
      } else {
        ASSERT_TRUE(gathered.empty());
      }
    }
  });
}

TEST(MinimpiStress, BarrierGenerationReuse) {
  // Tight barrier loop: rank threads leave one barrier and immediately
  // enter the next, so a stale generation read would deadlock or let a
  // rank skip ahead (detected by the shared counter going out of bounds).
  std::atomic<int> in_phase{0};
  run_parallel(kRanks, [&](dp::par::Communicator& comm) {
    for (int round = 0; round < kRounds * 4; ++round) {
      in_phase.fetch_add(1, std::memory_order_relaxed);
      comm.barrier();
      const int seen = in_phase.load(std::memory_order_relaxed);
      // Between barriers at most 2 phases' worth of increments can be live.
      ASSERT_LE(seen, kRanks * (round + 2));
      comm.barrier();
    }
  });
  EXPECT_EQ(in_phase.load(), kRanks * kRounds * 4);
}

TEST(ObsStress, ConcurrentMetricsEmission) {
  auto& reg = dp::obs::MetricsRegistry::instance();
  reg.clear();
  // Writers hammer find-or-create plus the lock-free update paths while a
  // reader thread snapshots and serializes the registry mid-flight.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::ostringstream os;
      reg.write_jsonl(os);
      (void)reg.event_count();
    }
  });
  run_parallel(kRanks, [&](dp::par::Communicator& comm) {
    const int me = comm.rank();
    auto& hits = reg.counter("stress.hits");
    auto& depth = reg.gauge("stress.depth");
    auto& lat = reg.histogram("stress.latency");
    for (int round = 0; round < kRounds * 20; ++round) {
      hits.inc();
      depth.add(1.0);
      lat.observe(1e-6 * ((me + 1) * (round % 13 + 1)));
      if (round % 16 == 0)
        reg.record_event("stress.tick", {{"rank", static_cast<double>(me)},
                                         {"round", static_cast<double>(round)}});
      // A second name per rank exercises registration under contention.
      reg.counter("stress.rank." + std::to_string(me)).inc();
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(reg.counter("stress.hits").value(),
            static_cast<std::uint64_t>(kRanks) * kRounds * 20);
  EXPECT_DOUBLE_EQ(reg.gauge("stress.depth").value(), kRanks * kRounds * 20.0);
  EXPECT_EQ(reg.histogram("stress.latency").count(),
            static_cast<std::uint64_t>(kRanks) * kRounds * 20);
  reg.clear();
}

TEST(ObsStress, ConcurrentTraceEmission) {
  auto& collector = dp::obs::TraceCollector::instance();
  collector.clear();
  collector.set_enabled(true);
  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    // Concurrent flush + count: must see a coherent (if momentarily stale)
    // event set, never a torn one.
    while (!stop.load(std::memory_order_acquire)) {
      std::ostringstream os;
      collector.write_chrome_trace(os);
      (void)collector.event_count();
    }
  });
  run_parallel(kRanks, [](dp::par::Communicator& comm) {
    dp::obs::TraceCollector::set_thread_rank(comm.rank());
    for (int round = 0; round < kRounds * 5; ++round) {
      dp::obs::TraceSpan span("stress.span", "stress");
      dp::obs::TraceCollector::instance().record_instant("stress.instant", "stress");
      if (round % 8 == 0) {
        dp::ScopedTimer timed("stress.timed", "stress");
        comm.barrier();
      }
    }
  });
  stop.store(true, std::memory_order_release);
  flusher.join();
  collector.set_enabled(false);

  // 1 span + 1 instant per round per rank; ScopedTimer adds one more span
  // every 8th round. (Flusher reads do not consume events.)
  const std::size_t per_rank = kRounds * 5 + kRounds * 5 + (kRounds * 5 + 7) / 8;
  EXPECT_GE(collector.event_count(), kRanks * per_rank);
  collector.clear();
}

TEST(ObsStress, TimerRegistryShardChurn) {
  auto& reg = dp::TimerRegistry::instance();
  reg.clear();
  // Short-lived threads allocate fresh shards (their accumulations must
  // survive thread exit) while readers merge and clear concurrently.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)reg.snapshot();
      (void)reg.get("stress.churn");
      (void)reg.sorted_by_total();
    }
  });
  constexpr int kWaves = 6;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    workers.reserve(kRanks);
    for (int t = 0; t < kRanks; ++t)
      workers.emplace_back([&reg] {
        for (int round = 0; round < kRounds; ++round)
          reg.add("stress.churn", 1e-9);
      });
    for (auto& w : workers) w.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(reg.get("stress.churn").calls,
            static_cast<std::uint64_t>(kWaves) * kRanks * kRounds);
  reg.clear();
}

TEST(TabStress, SharedTableExtrapolationCounter) {
  // One tabulated embedding shared by every rank (the distributed-MD setup:
  // ranks hold FusedDP views of a single TabulatedDP). Every eval here lands
  // outside [lo, hi], hammering the extrapolation counter from all threads
  // at once — the counter must be atomic (it once was a plain mutable
  // size_t, a data race) and must not lose increments.
  dp::nn::EmbeddingNet net({8, 16, 32});
  dp::Rng rng(7);
  net.init_random(rng);
  const dp::tab::TabulatedEmbedding table(net, {0.0, 1.0, 0.05});

  std::vector<double> ref_low(32), ref_high(32);
  table.eval(-0.25, ref_low.data());
  table.eval(1.25, ref_high.data());
  const std::size_t before = table.extrapolations();

  run_parallel(kRanks, [&](dp::par::Communicator& comm) {
    std::vector<double> g(32);
    for (int round = 0; round < kRounds * 4; ++round) {
      const bool low = (comm.rank() + round) % 2 == 0;
      table.eval(low ? -0.25 : 1.25, g.data());
      // Concurrent reads of the shared coefficients stay coherent.
      for (std::size_t ch = 0; ch < g.size(); ++ch)
        ASSERT_DOUBLE_EQ(g[ch], low ? ref_low[ch] : ref_high[ch]);
    }
  });
  EXPECT_EQ(table.extrapolations(),
            before + static_cast<std::size_t>(kRanks) * kRounds * 4);
}

TEST(MinimpiStress, NonblockingStorm) {
  // All-to-all via isend/irecv with pathological sizes: every round each
  // rank posts all its receives up front, fires sends in rotated order, then
  // completes via alternating test()-polling and wait(). Payloads alternate
  // between empty (null-data edge, exercised both in send and take_vec) and
  // megabyte-scale (forces real memcpy traffic through the mailboxes while
  // other ranks' scans run). A TSan schedule where try_recv races a
  // concurrent send on the same mailbox is exactly the target.
  constexpr std::size_t kHuge = 1 << 20;  // 8 MiB of doubles per big message
  const auto stats = run_parallel(kRanks, [](dp::par::Communicator& comm) {
    const int me = comm.rank();
    const int n = comm.size();
    for (int round = 0; round < 6; ++round) {
      std::vector<dp::par::Request> rx;
      rx.reserve(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) rx.push_back(comm.irecv((me + k) % n, round));
      for (int k = 0; k < n; ++k) {
        const int peer = (me + n - k) % n;
        const bool big = (peer + round) % 2 == 0;
        std::vector<double> payload(big ? kHuge : 0,
                                    static_cast<double>(me * 100 + round));
        comm.isend_vec(peer, round, payload);
      }
      for (int k = 0; k < n; ++k) {
        auto& req = rx[static_cast<std::size_t>(k)];
        if (k % 2 == 0)
          while (!req.test()) {
          }
        const int peer = (me + k) % n;
        const auto got = req.take_vec<double>();  // waits when still pending
        const bool big = (me + round) % 2 == 0;
        ASSERT_EQ(got.size(), big ? kHuge : 0u);
        if (big) {
          ASSERT_DOUBLE_EQ(got.front(), peer * 100 + round);
          ASSERT_DOUBLE_EQ(got.back(), peer * 100 + round);
        }
      }
    }
  });
  EXPECT_EQ(stats.messages, static_cast<std::uint64_t>(kRanks) * kRanks * 6);
}

TEST(NeighborStress, RebuildStormWithConcurrentQueries) {
  // The distributed-driver concurrency shape for neighbor maintenance:
  // every rank thread owns one NeighborList that it rebuilds (spawning an
  // OpenMP team inside the rank thread — the ranks x threads product the
  // TSan job re-runs with OMP_NUM_THREADS=4) while, in the same rounds,
  // all ranks hammer needs_rebuild on a shared, never-rebuilt list (const
  // reads only) and the shared metrics registry absorbs counter/histogram
  // traffic from every team. Parity between a 1-thread and an N-thread
  // rebuild of the same frame is asserted under the storm, so a torn
  // workspace write fails functionally, not just under TSan.
  const dp::md::Box box(22.0, 22.0, 22.0);
  std::vector<dp::Vec3> base(300);
  {
    dp::Rng rng(404);
    for (auto& r : base)
      r = {rng.uniform(0.0, 22.0), rng.uniform(0.0, 22.0), rng.uniform(0.0, 22.0)};
  }
  dp::md::NeighborList shared_list(5.0, 2.0);
  shared_list.build(box, base);

  run_parallel(kRanks, [&](dp::par::Communicator& comm) {
    const int me = comm.rank();
    dp::Rng rng(1000 + static_cast<std::uint64_t>(me));
    std::vector<dp::Vec3> pos = base;
    dp::md::NeighborList mine(5.0, 1.0);
    dp::md::NeighborList check(5.0, 1.0);
    for (int round = 0; round < 12; ++round) {
      for (auto& r : pos) r = box.wrap(r + rng.unit_vector() * rng.uniform(0.0, 0.3));
      // Concurrent const queries on the shared list while other ranks are
      // mid-rebuild on their own lists.
      ASSERT_FALSE(shared_list.needs_rebuild(box, base));
      (void)mine.needs_rebuild(box, pos);
      mine.build(box, pos);
      if (round % 4 == 0) {
        // omp_set_num_threads sets a per-thread ICV: pinning this rank's
        // team to 1 thread never affects the other ranks' teams.
        const int saved = omp_get_max_threads();
        omp_set_num_threads(1);
        check.build(box, pos);
        omp_set_num_threads(saved);
        ASSERT_EQ(check.n_centers(), mine.n_centers());
        for (std::size_t i = 0; i < check.n_centers(); ++i) {
          const auto a = mine.neighbors(i);
          const auto b = check.neighbors(i);
          ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
              << "rank " << me << " round " << round << " center " << i;
        }
      }
    }
  });
}

TEST(MinimpiStress, ManyWorldsSequential) {
  // World construction/destruction churn: catches leaks of mailboxes,
  // stale thread handles, and init-order issues under ASan/LSan.
  for (int iter = 0; iter < 20; ++iter) {
    const int n = 2 + iter % 3;
    const auto stats = run_parallel(n, [](dp::par::Communicator& comm) {
      const double s = comm.allreduce_sum(1.0);
      ASSERT_DOUBLE_EQ(s, comm.size());
    });
    // World totals: every rank counts its entry into the one allreduce.
    EXPECT_EQ(stats.reductions, static_cast<std::uint64_t>(n));
  }
}

}  // namespace
