// Fig 7: step-by-step speedup of the optimized inference over the Ref [20]
// baseline (paper: water 2.3 -> 3.1 -> 3.4 -> 3.7x; copper 3.7 -> 5.9 ->
// 8.4 -> 9.7x on one V100). Reproduced on one 4-core CPU with paper-shaped
// models; system sizes scaled down (see bench_util.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dp/baseline_model.hpp"
#include "obs/metrics.hpp"

using namespace dpbench;

namespace {

struct Step {
  std::string name;
  double seconds = 0;
  std::size_t embedding_bytes = 0;  // per force call, measured
};

/// Device-resident bytes per atom for a path: measured embedding buffers
/// plus the environment-matrix arrays every path keeps.
double bytes_per_atom(const Workload& w, std::size_t embedding_bytes) {
  const double nm = w.model.config().nm();
  const double env = nm * (16.0 * 8.0 + 4.0) + nm * 4.0 * 8.0;  // rmat+deriv+slots+g_rmat
  return env + static_cast<double>(embedding_bytes) / static_cast<double>(w.sys.atoms.size());
}

void run_system(const char* label, Workload& w, dp::obs::MetricsRegistry& reg) {
  const std::size_t n = w.sys.atoms.size();
  std::vector<Step> steps;

  {
    dp::core::BaselineDP ff(w.model, dp::core::EnvMatKernel::Baseline);
    steps.push_back({"baseline (Ref [20])", time_force_eval(ff, w), ff.embedding_bytes()});
  }
  {
    dp::tab::CompressedDP ff(w.tabulated, dp::core::EnvMatKernel::Baseline);
    steps.push_back({"+ tabulation of embedding net", time_force_eval(ff, w),
                     ff.embedding_bytes()});
  }
  {
    dp::fused::FusedDP ff(w.tabulated,
                          {.skip_padding = false,
                           .env_kernel = dp::core::EnvMatKernel::Baseline});
    steps.push_back({"+ kernel fusion", time_force_eval(ff, w), 0});
  }
  {
    dp::fused::FusedDP ff(w.tabulated,
                          {.skip_padding = true,
                           .env_kernel = dp::core::EnvMatKernel::Baseline});
    steps.push_back({"+ redundancy removal", time_force_eval(ff, w), 0});
  }
  {
    dp::fused::FusedDP ff(w.tabulated,
                          {.skip_padding = true,
                           .env_kernel = dp::core::EnvMatKernel::Optimized});
    steps.push_back({"+ other optimizations (env-mat)", time_force_eval(ff, w), 0});
  }

  std::printf("\n%s: %zu atoms, N_m = %d\n", label, n,
              w.model.config().nm());
  std::printf("%-34s %14s %10s %16s\n", "optimization step", "us/step/atom", "speedup",
              "embed buf [MB]");
  print_rule();
  const double base = steps.front().seconds;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const auto& s = steps[k];
    std::printf("%-34s %14.3f %9.2fx %16.1f\n", s.name.c_str(),
                s.seconds / static_cast<double>(n) * 1e6, base / s.seconds,
                static_cast<double>(s.embedding_bytes) / 1e6);
    reg.record_event(s.name, label,
                     {{"step", static_cast<double>(k)},
                      {"us_per_step_atom", s.seconds / static_cast<double>(n) * 1e6},
                      {"speedup", base / s.seconds},
                      {"embedding_mb", static_cast<double>(s.embedding_bytes) / 1e6}});
  }

  // Capacity story (paper Sec 6.1.2: water x6, copper x26 more atoms per
  // 16 GB V100): atoms that fit in 16 GB under each path's measured
  // per-atom footprint.
  const double cap_base = 16e9 / bytes_per_atom(w, steps[0].embedding_bytes);
  const double cap_fused = 16e9 / bytes_per_atom(w, 0);
  std::printf("capacity on a 16 GB device: baseline %.0fk atoms, fused %.0fk (x%.1f)\n",
              cap_base / 1e3, cap_fused / 1e3, cap_fused / cap_base);
  reg.gauge(std::string(label) + ".final_speedup").set(base / steps.back().seconds);
  reg.gauge(std::string(label) + ".capacity_ratio").set(cap_fused / cap_base);
}

}  // namespace

int main() {
  std::printf("Fig 7 reproduction — step-by-step optimization on one device\n");
  std::printf("(paper: single V100; here: one 4-core CPU, paper-shaped models)\n");

  // Local registry (not the process-wide instance): the emitted file holds
  // only this figure's rows.
  dp::obs::MetricsRegistry reg;

  auto water = water_workload();
  run_system("water", *water, reg);

  auto copper = copper_workload();
  run_system("copper", *copper, reg);

  if (reg.write_json_file("BENCH_fig7.json"))
    std::printf("\nwrote BENCH_fig7.json\n");

  std::printf("\nExpected shape (paper): each step compounds; copper gains more from\n"
              "redundancy removal because N_m = 500 is mostly padding at ambient\n"
              "conditions, water less (N_m = 138, ~2/3 filled).\n");
  return 0;
}
