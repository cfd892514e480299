// Fig 6: flat MPI vs MPI+OpenMP hybrid parallelization. On the many-core
// A64FX, flat MPI keeps 48 model/graph copies and maximizes ghost traffic;
// the hybrid scheme (each thread owns a fraction of the sub-region, one
// model copy per rank) cuts both. We sweep ranks at a fixed total worker
// count and account model memory and communication volume — the two
// quantities the paper's Sec 3.5.4 argument rests on.
#include <cstdio>
#include <memory>

#include <omp.h>

#include "bench_util.hpp"
#include "parallel/distributed_md.hpp"

using namespace dpbench;

int main() {
  std::printf("Fig 6 reproduction — flat MPI vs MPI+OpenMP hybrid\n\n");

  dp::core::ModelConfig cfg = dp::core::ModelConfig::tiny();
  cfg.rcut = 4.0;
  dp::core::DPModel model(cfg, 5);
  dp::tab::TabulationSpec spec{0.0, dp::tab::TabulatedDP::s_max(cfg, 0.9), 0.01};
  dp::tab::TabulatedDP tabulated(model, spec);

  // Table size stands in for the per-rank model/graph copy the paper counts
  // (13 MB copper graph; our table plus weights).
  const double model_mb = static_cast<double>(tabulated.total_bytes()) / 1e6 + 1.0;

  auto sys = dp::md::make_fcc(8, 8, 8, 3.634, 63.546, 0.05, 3);
  dp::md::SimulationConfig sim;
  sim.dt = 0.001;
  sim.steps = 8;
  sim.temperature = 330.0;
  sim.skin = 1.0;
  sim.rebuild_every = 4;
  sim.thermo_every = 8;

  const int total_workers = 8;
  std::printf("system: %zu atoms; %d workers split as ranks x threads\n\n", sys.atoms.size(),
              total_workers);
  std::printf("%12s %14s %14s %12s %10s %10s\n", "ranks x thr", "model mem", "comm [KB]",
              "ghosts", "wait [s]", "wall [s]");
  print_rule();

  for (int ranks : {1, 2, 4, 8}) {
    const int threads = total_workers / ranks;
    omp_set_num_threads(threads);  // threads partition each rank's atoms (Fig 6 (c))
    dp::par::DistributedOptions opts;
    const auto result = dp::par::run_distributed_md(
        ranks, sys, [&] { return std::make_unique<dp::fused::FusedDP>(tabulated); }, sim,
        opts);
    std::printf("%7dx%-4d %11.1f MB %14.1f %12zu %10.4f %10.3f\n", ranks, threads,
                model_mb * ranks, result.comm.bytes / 1024.0, result.max_ghost_atoms,
                result.halo_wait_seconds, result.wall_seconds);
  }
  omp_set_num_threads(1);

  std::printf("\nExpected shape (paper): model memory scales with rank count (48 copies\n"
              "exhausted the A64FX flat-MPI; 16x3 fit 1.5x larger systems) and ghost\n"
              "traffic shrinks as ranks coarsen — the hybrid wins on both axes.\n"
              "'wait' is the time ranks spent blocked in halo receives, summed over\n"
              "ranks.\n");
  return 0;
}
