// Fig 8: step-by-step optimization on the A64FX (paper: water 7.2 -> 14 ->
// 20.5x; copper 10.3 -> 31.5 -> 42.5x over the flat-MPI baseline), plus the
// MPI+OpenMP configuration sweep (48x1 / 16x3 / 4x12). Reproduced on one
// 4-core x86 CPU; system sizes scaled down (see bench_util.hpp).
//
// CPU-specific steps reproduced here: tabulation (every table walks the
// SVE-style blocked layout of Sec 3.5.1), fusion + redundancy removal
// (3.5.2), and the tabulated tanh in the remaining (fitting) network
// (3.5.3). The hybrid sweep is in fig6_hybrid_schemes (same experiment).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dp/baseline_model.hpp"

using namespace dpbench;

namespace {

struct Step {
  std::string name;
  double seconds;
};

void run_system(const char* label, Workload& w) {
  const std::size_t n = w.sys.atoms.size();
  std::vector<Step> steps;

  {
    // Flat-MPI baseline on CPU: un-tabulated network, reference operators.
    dp::core::BaselineDP ff(w.model, dp::core::EnvMatKernel::Baseline);
    steps.push_back({"baseline (flat MPI, network)", time_force_eval(ff, w)});
  }
  {
    // Tabulation with the SVE-friendly blocked coefficient layout.
    dp::tab::CompressedDP ff(w.tabulated, dp::core::EnvMatKernel::Baseline);
    steps.push_back({"+ tabulation (blocked layout)", time_force_eval(ff, w)});
  }
  {
    dp::fused::FusedDP ff(w.tabulated,
                          {.skip_padding = true,
                           .env_kernel = dp::core::EnvMatKernel::Baseline});
    steps.push_back({"+ fusion + redundancy removal", time_force_eval(ff, w)});
  }
  {
    // "Other optimizations": vectorized custom operators + tabulated tanh
    // in the fitting net.
    w.model.set_activation(dp::nn::Activation::TanhTabulated);
    dp::fused::FusedDP ff(w.tabulated,
                          {.skip_padding = true,
                           .env_kernel = dp::core::EnvMatKernel::Optimized});
    steps.push_back({"+ vectorized ops + tanh table", time_force_eval(ff, w)});
    w.model.set_activation(dp::nn::Activation::Tanh);
  }

  std::printf("\n%s: %zu atoms, N_m = %d\n", label, n, w.model.config().nm());
  std::printf("%-34s %14s %10s\n", "optimization step", "us/step/atom", "speedup");
  print_rule(62);
  const double base = steps.front().seconds;
  for (const auto& s : steps)
    std::printf("%-34s %14.3f %9.2fx\n", s.name.c_str(),
                s.seconds / static_cast<double>(n) * 1e6, base / s.seconds);
}

}  // namespace

int main() {
  std::printf("Fig 8 reproduction — step-by-step optimization on a many-core CPU\n");
  std::printf("(paper: single A64FX node; here: one 4-core x86 CPU)\n");

  auto water = water_workload();
  run_system("water", *water);
  auto copper = copper_workload();
  run_system("copper", *copper);

  std::printf("\nExpected shape (paper): tabulation is the largest single step; fusion +\n"
              "redundancy removal compounds (copper >> water due to padding); the tanh\n"
              "table and vectorized operators add the final increment. The MPI/OpenMP\n"
              "configuration table is produced by fig6_hybrid_schemes.\n");
  return 0;
}
