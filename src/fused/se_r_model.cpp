#include "fused/se_r_model.hpp"

namespace dp::fused {

SeRFusedDP::SeRFusedDP(const tab::TabulatedDP& tabulated)
    : Skeleton(tabulated, core::DescriptorKind::SeR, "SeRFusedDP",
               {"se_r.compute", "se_r.env_mat", "se_r.descriptor", "se_r.prod_force"}) {
  // Cache the padding row g(0) of every table.
  for (const tab::TabulatedEmbedding& t : tabulated.tables()) {
    AlignedVector<double> g0(tabulated.model().config().m());
    t.eval(0.0, g0.data());
    g_zero_.push_back(std::move(g0));
  }
}

md::ForceResult SeRFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                    const md::NeighborList& nlist, bool periodic) {
  const core::DPModel& model = tab_.model();
  const core::ModelConfig& cfg = model.config();
  const std::size_t m = cfg.m();
  const double scale = 1.0 / static_cast<double>(cfg.nm());

  // ---- Pass 1: D = (1/N_m) sum over ALL slots of g(s_j). Real slots take
  // one fused walk per (atom, type) run, summed with unit weight; padded ones
  // contribute the cached g(0) analytically. D is the fitting row itself. ---
  const auto pass1 = [&](NoStaging&, std::size_t i, int ct, double* d_vec) {
    std::size_t slots = 0;
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      const int limit = env_.count(i, ty);
      tab_.table_pair(ct, ty).contract(env_.rmat_at(env_.block_begin(i, ty)),
                                       static_cast<std::size_t>(limit), d_vec,
                                       /*unit_weight=*/true);
      const double n_padded =
          static_cast<double>(cfg.sel[static_cast<std::size_t>(ty)] - limit);
      const auto& g0 = g_zero_[model.pair_index(ct, ty)];
#pragma omp simd
      for (std::size_t b = 0; b < m; ++b) d_vec[b] += n_padded * g0[b];
      slots += static_cast<std::size_t>(limit);
    }
    for (std::size_t b = 0; b < m; ++b) d_vec[b] *= scale;
    return slots;
  };

  // ---- Pass 2: dE/ds_j = (1/N_m) <g_D, g'(s_j)> into column 0, one
  // derivative walk per slot run, over the rows it has just read
  // (dp/env_mat.hpp); the directional columns are written as explicit
  // zeros. g_D is the unscaled dE/dD, so the 1/N_m lands on the rows after
  // the walk. Pass 1 already counted these slots' extrapolations. -----------
  const auto pass2 = [&](NoStaging&, std::size_t i, const double* g_d) {
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      double* rows = env_.rmat.data() + env_.block_begin(i, ty) * 4;
      const auto limit = static_cast<std::size_t>(env_.count(i, ty));
      tab_.table_pair(atoms.type[i], ty)
          .contract_gradient(rows, limit, g_d, rows, /*unit_weight=*/true,
                             /*count_lookups=*/false);
      for (std::size_t k = 0; k < limit; ++k) rows[4 * k] *= scale;
    }
  };

  return run(box, atoms, nlist, periodic, pass1, pass2);
}

}  // namespace dp::fused
