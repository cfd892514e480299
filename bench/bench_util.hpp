// Shared workload builders for the figure/table harnesses.
//
// Machine note: the harness host is one 4-core CPU (`nproc`, and the `host`
// block of bench/e2e/BENCH_e2e.json), so the paper's atom
// counts (12,880 / 6,912 / millions) are scaled down while every model
// parameter that shapes the result (cutoffs, N_m slot reserves, net widths)
// is kept. All timings are reported per step per atom, which is scale-free
// for this O(N) method; EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fused/fused_model.hpp"
#include "md/lattice.hpp"
#include "tab/compressed_model.hpp"

namespace dpbench {

/// A model + tabulation + configuration + neighbor list bundle. Members are
/// ordered so the tabulation may reference the model; the bundle is pinned
/// behind unique_ptr.
struct Workload {
  dp::core::DPModel model;
  dp::tab::TabulatedDP tabulated;
  dp::md::Configuration sys;
  dp::md::NeighborList nlist;
  bool periodic = true;

  /// `sharpen` scales the embedding weights after init: seeded nets are
  /// smoother than trained production models, and a factor of ~1.5 puts the
  /// tabulation error magnitudes in the range the paper's Fig 2 reports.
  Workload(dp::core::ModelConfig cfg, std::uint64_t seed, double table_interval,
           double r_min, dp::md::Configuration config, double skin, bool periodic_,
           double sharpen = 1.0)
      : model(std::move(cfg), seed),
        tabulated(sharpened(model, sharpen),
                  {0.0, dp::tab::TabulatedDP::s_max(model.config(), r_min), table_interval}),
        sys(std::move(config)),
        nlist(model.config().rcut, skin),
        periodic(periodic_) {
    nlist.build(sys.box, sys.atoms.pos, SIZE_MAX, periodic);
  }
  Workload(const Workload&) = delete;

 private:
  static dp::core::DPModel& sharpened(dp::core::DPModel& m, double factor) {
    if (factor != 1.0)
      for (int t = 0; t < m.config().ntypes; ++t)
        for (auto& layer : m.embedding(t).layers())
          for (std::size_t k = 0; k < layer.weights().size(); ++k)
            layer.weights().data()[k] *= factor;
    return m;
  }
};

/// Paper-shaped water model (nets 32x64x128 / 240^3, M< = 16) on one
/// 192-atom cell; the cutoff is reduced to 5 A so the periodic cell stays
/// valid (sel scaled with the cutoff volume).
inline std::unique_ptr<Workload> water_workload(double interval = 0.01,
                                                bool paper_nets = true,
                                                double sharpen = 1.0) {
  dp::core::ModelConfig cfg = dp::core::ModelConfig::water();
  cfg.rcut = 5.0;
  cfg.sel = {30, 62};
  if (!paper_nets) {
    cfg.embed_widths = {16, 32, 64};
    cfg.fit_widths = {64, 64, 64};
    cfg.axis_neuron = 8;
  }
  return std::make_unique<Workload>(cfg, 2022, interval, 0.8, dp::md::make_water(1, 1, 1),
                                    1.0, true, sharpen);
}

/// Paper-shaped copper model (rc = 8 A, N_m = 500 — the full high-pressure
/// slot reserve) on a finite FCC block, evaluated as a cluster so the box
/// never constrains the 8 A cutoff.
inline std::unique_ptr<Workload> copper_workload(double interval = 0.01,
                                                 bool paper_nets = true, int cells = 4,
                                                 double sharpen = 1.0) {
  dp::core::ModelConfig cfg = dp::core::ModelConfig::copper();
  if (!paper_nets) {
    cfg.embed_widths = {16, 32, 64};
    cfg.fit_widths = {64, 64, 64};
    cfg.axis_neuron = 8;
  }
  auto block = dp::md::make_fcc(cells, cells, cells, 3.634, 63.546, 0.08, 77);
  // Re-home the block into a huge box: an isolated cluster.
  dp::md::Configuration cluster;
  cluster.box = dp::md::Box(200, 200, 200);
  cluster.atoms = block.atoms;
  for (auto& r : cluster.atoms.pos) r += dp::Vec3{80, 80, 80};
  return std::make_unique<Workload>(cfg, 40, interval, 1.8, std::move(cluster), 1.0, false,
                                    sharpen);
}

/// Seconds per force evaluation (one warm-up, then >= min_seconds of calls,
/// split into `repeats` batches whose median is reported — one noisy batch
/// cannot skew a figure number).
template <class FF>
double time_force_eval(FF& ff, Workload& w, double min_seconds = 0.25, int max_iters = 9,
                       int repeats = 3) {
  return dp::time_per_call([&] { ff.compute(w.sys.box, w.sys.atoms, w.nlist, w.periodic); },
                           min_seconds, max_iters, repeats);
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace dpbench
