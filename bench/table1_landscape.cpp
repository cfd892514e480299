// Table 1: the MLMD landscape — time-to-solution [s/step/atom] of the
// baseline (Ref [20]) vs this work on Summit and Fugaku, at the paper's
// machine scales, from the calibrated projection model. Paper rows are
// printed alongside for comparison.
#include <omp.h>

#include <cstdio>

#include "bench_util.hpp"
#include "bp/behler_parrinello.hpp"
#include "perf/scaling_model.hpp"

using namespace dp::perf;

namespace {

void row(const char* work, const char* system, const char* machine, double atoms,
         double tts_model, double tts_paper) {
  std::printf("%-26s %-8s %-8s %10.2e %14.2e %14.2e\n", work, system, machine, atoms,
              tts_model, tts_paper);
}

}  // namespace

int main() {
  std::printf("Table 1 reproduction — MLMD performance landscape (DP rows)\n\n");
  std::printf("%-26s %-8s %-8s %10s %14s %14s\n", "work", "system", "machine", "# atoms",
              "TtS (model)", "TtS (paper)");
  for (int i = 0; i < 84; ++i) std::putchar('-');
  std::putchar('\n');

  {
    // Baseline, 127 M copper atoms on full Summit (2020 Gordon Bell).
    ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Baseline);
    const auto p = m.point(127'000'000, 4560);
    row("Baseline [20] (double)", "Cu", "Summit", 127e6, p.tts_s_step_atom, 8.1e-10);
  }
  {
    // This work, 3.4 B copper atoms on full Summit.
    ScalingModel m(MachineSystem::summit(), WorkloadSpec::copper(), Path::Fused);
    const std::size_t atoms = m.max_atoms(4560);
    const auto p = m.point(atoms, 4560);
    row("This work (double)", "Cu", "Summit", static_cast<double>(atoms), p.tts_s_step_atom,
        1.1e-10);
    std::printf("%-26s %-8s %-8s capacity: %.2f B atoms (paper: 3.4 B)\n", "", "", "",
                static_cast<double>(atoms) / 1e9);
  }
  {
    // This work, 17 B copper atoms on full Fugaku (projected in the paper).
    ScalingModel m(MachineSystem::fugaku(), WorkloadSpec::copper(), Path::Fused);
    const std::size_t atoms = m.max_atoms(157986);
    const auto p = m.point(atoms, 157986);
    row("This work (double)", "Cu", "Fugaku", static_cast<double>(atoms), p.tts_s_step_atom,
        4.1e-11);
    std::printf("%-26s %-8s %-8s capacity: %.2f B atoms (paper projection: 17.3 B)\n", "", "",
                "", static_cast<double>(atoms) / 1e9);
  }

  // Measured in-tree BP-scheme counterpart on this host, same copper-like
  // system for both potentials. BP evaluates its atoms serially; fused DP
  // runs on the OpenMP team.
  {
    auto w = dpbench::copper_workload(0.01, false, 3);
    dp::bp::BpConfig bp_cfg;
    bp_cfg.rcut = w->model.config().rcut;
    dp::bp::BehlerParrinello bp(bp_cfg, 5);
    dp::fused::FusedDP dp_ff(w->tabulated);
    const double n = static_cast<double>(w->sys.atoms.size());
    const double t_bp = dpbench::time_force_eval(bp, *w);
    const double t_dp = dpbench::time_force_eval(dp_ff, *w);
    std::printf("\nmeasured in-tree on this host, %zu-atom copper cluster:\n",
                w->sys.atoms.size());
    std::printf("  BP (8 radial G2, 24x24 net)   %10.2e s/step/atom  (1 thread)\n", t_bp / n);
    const int threads = omp_get_max_threads();
    std::printf("  DP (fused, demo nets)         %10.2e s/step/atom  (%d thread%s)\n", t_dp / n,
                threads, threads == 1 ? "" : "s");
    std::printf("  (a small radial BP is CHEAPER per atom than DP — the literature\n"
                "   TtS gap in Table 1 comes from their much larger symmetry-function\n"
                "   sets, CPU-only implementations and, above all, DP's accuracy at\n"
                "   scale on accelerators; this row keeps the comparison honest.)\n");
  }

  std::printf(
      "\n(The two BP-scheme CPU rows of the paper's Table 1 — Simple-NN at 3.6e-5\n"
      "and Singraber et al. at 1.3e-6 s/step/atom — are literature values quoted\n"
      "for context; they sit 4-6 orders of magnitude above every DP row.)\n"
      "\nExpected shape: this work beats the baseline TtS by ~7x and extends the\n"
      "largest system from 127 M to billions of atoms.\n");
  return 0;
}
