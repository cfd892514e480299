#include "fused/fused_model.hpp"

#include "common/cost.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"

namespace dp::fused {

FusedDP::FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts)
    : Skeleton(tabulated, core::DescriptorKind::SeA, "FusedDP",
               {"fused.compute", "fused.env_mat", "fused.descriptor", "fused.prod_force"},
               opts.env_kernel),
      opts_(opts) {}

md::ForceResult FusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                 const md::NeighborList& nlist, bool periodic) {
  const core::ModelConfig& cfg = tab_.model().config();
  const std::size_t m = cfg.m();
  const double scale = 1.0 / static_cast<double>(cfg.nm());
  const auto limit_of = [&](std::size_t i, int ty) {
    return static_cast<std::size_t>((env_.compact() || opts_.skip_padding)
                                        ? env_.count(i, ty)
                                        : cfg.sel[static_cast<std::size_t>(ty)]);
  };

  // ---- Pass 1: fused tabulate + rank-1 contraction (Fig 4 (c)) -----------
  const auto pass1 = [&](NoStaging&, std::size_t i, int ct, double* a_mat) {
    std::size_t slots = 0;
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      const std::size_t limit = limit_of(i, ty);
      tab_.table_pair(ct, ty).contract(env_.rmat_at(env_.block_begin(i, ty)), limit, a_mat);
      slots += limit;
    }
    for (std::size_t k = 0; k < 4 * m; ++k) a_mat[k] *= scale;
    return slots;
  };

  // ---- Pass 2: re-walk each slot run with the derivative, fusing dE/dR~
  // and dE/ds over the rows it has just read (the rows become their own
  // gradients; dp/env_mat.hpp) -----------------------------------------------
  const auto pass2 = [&](NoStaging&, std::size_t i, const double* g_a) {
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      double* rows = env_.rmat.data() + env_.block_begin(i, ty) * 4;
      tab_.table_pair(atoms.type[i], ty).contract_gradient(rows, limit_of(i, ty), g_a, rows);
    }
    // Dense layout without skip_padding walked the padded tails above;
    // their rows took gradients too (and are never read by the scatter,
    // which walks counts only).
  };

  const md::ForceResult out = run(box, atoms, nlist, periodic, pass1, pass2);

  const std::size_t slots = slots_processed();
  {
    static obs::Counter& slots_metric =
        obs::MetricsRegistry::instance().counter("fused.slots_processed");
    static obs::Gauge& padding_metric =
        obs::MetricsRegistry::instance().gauge("fused.padding_fraction");
    static obs::Counter& bytes_saved_metric =
        obs::MetricsRegistry::instance().counter("fused.bytes_saved");
    slots_metric.inc(slots);
    padding_metric.set(env_.padding_fraction());
    if (env_.compact()) {
      // The dense env payload plus its padded g_rmat rows, against the CSR,
      // whose rows hold the gradient too; clamped — tiny systems can spend
      // more on the prefix than the padding they avoid.
      const std::size_t dense = env_.dense_bytes() + slots_total() * 4 * sizeof(double);
      const std::size_t compact = env_.compact_bytes();
      if (dense > compact) bytes_saved_metric.inc(dense - compact);
    }
  }
  CostRegistry::instance().add(
      "fused.descriptor",
      {static_cast<double>(slots) * simd::kFusedPassFlops * static_cast<double>(m),
       static_cast<double>(slots) * 12.0 * static_cast<double>(m) * sizeof(double),
       static_cast<double>(slots) * 4.0 * sizeof(double)});
  return out;
}

}  // namespace dp::fused
