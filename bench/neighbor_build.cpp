// Neighbor-list construction benchmark: build time vs thread count and atom
// count for the deterministic two-pass OpenMP build, plus the steady-state
// allocation check (the persistent workspace must stop growing after
// warm-up, so rebuilds allocate nothing).
//
// Machine note: the harness host has 4 cores, so the sweep's 8-thread row
// oversubscribes it; the numbers are measurements of that host, not
// projections. The CSR output is byte-identical at every thread count, so
// only the timing changes.
#include <omp.h>

#include <cstdio>

#include "bench_util.hpp"
#include "md/neighbor.hpp"
#include "obs/metrics.hpp"

namespace {

/// One (atoms, threads) cell of the sweep: median seconds per build on a
/// jittered FCC copper block, with the workspace byte gauge sampled before
/// and after the timed rebuilds.
struct Point {
  double seconds = 0.0;
  std::size_t workspace_bytes = 0;
  bool alloc_free = false;
};

Point time_build(const dp::md::Configuration& sys, int threads) {
  omp_set_num_threads(threads);
  dp::md::NeighborList nlist(8.0, 2.0);
  // Warm-up grows every grow-only buffer to its plateau for this frame.
  for (int i = 0; i < 3; ++i) nlist.build(sys.box, sys.atoms.pos);
  Point p;
  p.workspace_bytes = nlist.workspace_bytes();
  p.seconds = dp::time_per_call([&] { nlist.build(sys.box, sys.atoms.pos); },
                                /*min_seconds=*/0.08, /*max_iters=*/40, /*repeats=*/3);
  p.alloc_free = nlist.workspace_bytes() == p.workspace_bytes;
  return p;
}

}  // namespace

int main() {
  std::printf("Neighbor-list build — threads x atoms sweep (copper FCC, rc 8 A + 2 A skin)\n");
  dp::obs::MetricsRegistry reg;
  const int thread_counts[] = {1, 2, 4, 8};
  const int cell_counts[] = {6, 9, 12};  // 864 / 2,916 / 6,912 atoms
  for (int cells : cell_counts) {
    const auto sys = dp::md::make_fcc(cells, cells, cells, 3.634, 63.546, 0.08, 77);
    const std::size_t natoms = sys.atoms.size();
    std::printf("\n%zu atoms\n", natoms);
    std::printf("%8s %14s %10s %18s %12s\n", "threads", "ms/build", "speedup",
                "workspace bytes", "alloc-free");
    double base_seconds = 0.0;
    for (int threads : thread_counts) {
      const Point p = time_build(sys, threads);
      if (threads == 1) base_seconds = p.seconds;
      const double speedup = base_seconds / p.seconds;
      std::printf("%8d %14.3f %9.2fx %18zu %12s\n", threads, 1e3 * p.seconds, speedup,
                  p.workspace_bytes, p.alloc_free ? "yes" : "NO");
      reg.record_event("build", {{"atoms", static_cast<double>(natoms)},
                                 {"threads", static_cast<double>(threads)},
                                 {"seconds_per_build", p.seconds},
                                 {"speedup_vs_1t", speedup},
                                 {"workspace_bytes", static_cast<double>(p.workspace_bytes)},
                                 {"steady_state_alloc_free", p.alloc_free ? 1.0 : 0.0}});
    }
  }
  dpbench::print_rule();
  if (reg.write_json_file("BENCH_neighbor.json")) std::printf("wrote BENCH_neighbor.json\n");
  std::printf(
      "Acceptance shape on a multi-core node: >= 3x at 8 threads for the\n"
      "largest system, alloc-free = yes in every row. The CSR is byte-identical\n"
      "across rows of one system (tests/md/test_neighbor_parallel.cpp).\n");
  return 0;
}
