// Count-equalized slab benchmark: the vacuum-gap workload (a crystal
// occupying half the box, the rest empty) run once on the driver's
// count-equalized slabs, against the uniform grid's atom-count imbalance
// over the same initial positions, plus a per-transport communication
// footprint of a short run on every backend.
//
// Emits BENCH_rebalance.json for tools/bench_compare.py. The uniform grid's
// imbalance is pure atom counting and the force-parity verdict (against a
// 1-rank run) pure arithmetic; the driver's imbalance is the running max
// over the trajectory's rebuilds, so the reduction fraction is gated with
// an absolute floor (>= 0.25, the acceptance bar) rather than a baseline
// ratio alone. Message and payload counts per transport are deterministic;
// deferred-post splits and wire timing are not and are only reported.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_annotations.hpp"
#include "md/lj.hpp"
#include "obs/metrics.hpp"
#include "parallel/decomp.hpp"
#include "parallel/distributed_md.hpp"
#include "parallel/minimpi.hpp"
#include "parallel/transport.hpp"

namespace {

constexpr int kRanks = 4;

dp::md::Configuration vacuum_gap_system() {
  auto sys = dp::md::make_fcc(8, 8, 8, 3.7, 63.5, 0.05, 177);
  const dp::Vec3 L = sys.box.lengths();
  sys.box = dp::md::Box(2.0 * L.x, L.y, L.z);  // upper half of x is vacuum
  return sys;
}

dp::md::SimulationConfig bench_sim(int steps) {
  dp::md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = steps;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.rebuild_every = 2;
  sc.thermo_every = 8;
  return sc;
}

std::unique_ptr<dp::md::ForceField> make_ff() {
  return std::make_unique<dp::md::LennardJones>(0.4, 2.34, 4.5);
}

/// Runs one rank of a ProcessGroup world per std::thread — the same
/// process-shaped wiring the transport tests use, so the byte counters are
/// exactly what a real multi-process run would report.
dp::par::CommStats comm_footprint(dp::par::TransportKind kind) {
  dp::par::TransportConfig base;
  base.kind = kind;
  base.world = 2;
  if (kind == dp::par::TransportKind::Shm) {
    // pid-suffixed so concurrent bench runs on one host cannot collide in
    // /dev/shm.
    base.rendezvous = "dp_bench_rebalance_" + std::to_string(::getpid());
  } else {
    base.rendezvous = "127.0.0.1:" + std::to_string(dp::par::pick_free_tcp_port());
  }

  auto sys = dp::md::make_fcc(6, 6, 6, 3.7, 63.5, 0.05, 177);
  dp::md::SimulationConfig sc = bench_sim(8);
  dp::par::DistributedOptions opts;
  opts.grid = {2, 1, 1};

  dp::par::CommStats rank0;
  dp::Mutex mu;
  std::vector<std::thread> threads;
  for (int r = 0; r < base.world; ++r) {
    threads.emplace_back([&, r] {
      dp::par::TransportConfig cfg = base;
      cfg.rank = r;
      dp::par::ProcessGroup pg(cfg);
      dp::par::run_distributed_md_rank(pg.comm(), sys, make_ff, sc, opts);
      if (r == 0) {
        dp::MutexLock lock(mu);
        rank0 = pg.stats();
      }
    });
  }
  for (auto& t : threads) t.join();
  return rank0;
}

}  // namespace

int main() {
  std::printf("Count-equalized slabs — vacuum-gap workload, %d slabs along x\n", kRanks);
  dp::obs::MetricsRegistry reg;

  auto sys = vacuum_gap_system();
  dp::md::SimulationConfig sc = bench_sim(24);
  dp::par::DistributedOptions opts;
  opts.grid = {kRanks, 1, 1};
  // Rank 0's gather of the final state, forces in atom-id order.
  std::vector<dp::Vec3> slab_force, single_force;
  const auto keep_force = [&sc](std::vector<dp::Vec3>& out) {
    return [&sc, &out](dp::par::DistributedMd& md, const dp::md::ThermoSample& s) {
      if (s.step != sc.steps) return;
      dp::md::Configuration state = md.gather();
      if (md.rank() == 0) out = std::move(state.atoms.force);
    };
  };
  const auto slabs =
      dp::par::run_distributed_md(kRanks, sys, make_ff, sc, opts, keep_force(slab_force));
  opts.grid = {1, 1, 1};
  dp::par::run_distributed_md(1, sys, make_ff, sc, opts, keep_force(single_force));

  // What the uniform grid would start from: max/mean atoms per rank over
  // the initial positions.
  const dp::par::Decomp uniform(sys.box, {kRanks, 1, 1});
  std::vector<double> per_rank(kRanks, 0.0);
  for (const dp::Vec3& p : sys.atoms.pos)
    per_rank[static_cast<std::size_t>(uniform.owner_of(p))] += 1.0;
  const double uniform_imbalance =
      *std::max_element(per_rank.begin(), per_rank.end()) * kRanks /
      static_cast<double>(sys.atoms.size());

  const double reduction = 1.0 - slabs.load_imbalance / uniform_imbalance;
  double max_force_diff = 0.0;
  for (std::size_t i = 0; i < single_force.size(); ++i)
    max_force_diff = std::max(max_force_diff, norm(slab_force[i] - single_force[i]));
  const bool parity = slab_force.size() == sys.atoms.size() &&
                      single_force.size() == sys.atoms.size() && max_force_diff < 1e-12;

  std::printf("%24s %12s %12s\n", "", "uniform", "equalized");
  std::printf("%24s %12.4f %12.4f\n", "load imbalance (max/mean)", uniform_imbalance,
              slabs.load_imbalance);
  std::printf("imbalance reduction: %.1f%% (acceptance floor 25%%)\n", 1e2 * reduction);
  std::printf("max |dF| %d ranks vs 1 rank: %.3g (parity %s)\n", kRanks, max_force_diff,
              parity ? "yes" : "NO");

  reg.record_event("rebalance",
                   {{"ranks", static_cast<double>(kRanks)},
                    {"atoms", static_cast<double>(sys.atoms.size())},
                    {"imbalance_fixed", uniform_imbalance},
                    {"imbalance_rebalanced", slabs.load_imbalance},
                    {"imbalance_reduction", reduction},
                    {"force_parity_ok", parity ? 1.0 : 0.0}});

  std::printf("\nPer-transport footprint of one 2-rank copper run (8 steps):\n");
  std::printf("%10s %10s %14s %14s\n", "transport", "messages", "payload KB", "wire KB");
  const struct {
    const char* event;
    dp::par::TransportKind kind;
  } backends[] = {{"comm_shm", dp::par::TransportKind::Shm},
                  {"comm_tcp", dp::par::TransportKind::Tcp}};
  for (const auto& b : backends) {
    const dp::par::CommStats cs = comm_footprint(b.kind);
    std::printf("%10s %10llu %14.1f %14.1f\n", cs.transport,
                static_cast<unsigned long long>(cs.messages), cs.bytes / 1024.0,
                cs.wire_bytes / 1024.0);
    reg.record_event(b.event, {{"messages", static_cast<double>(cs.messages)},
                               {"bytes", static_cast<double>(cs.bytes)},
                               {"wire_bytes", static_cast<double>(cs.wire_bytes)}});
  }

  dpbench::print_rule();
  if (reg.write_json_file("BENCH_rebalance.json"))
    std::printf("wrote BENCH_rebalance.json\n");
  return parity && reduction >= 0.25 ? 0 : 1;
}
