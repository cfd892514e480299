#include "fused/mixed_model.hpp"

#include <cstring>

namespace dp::fused {

MixedFusedDP::MixedFusedDP(const tab::TabulatedDP& tabulated, MixedPrecision precision)
    : Skeleton(tabulated, core::DescriptorKind::SeA, "MixedFusedDP",
               {"mixed.compute", "mixed.env_mat", "mixed.descriptor", "mixed.prod_force"}),
      precision_(precision) {
  for (const tab::TabulatedEmbedding& t : tabulated.tables()) {
    if (precision_ == MixedPrecision::Single)
      tables_sp_.emplace_back(t);
    else
      tables_hp_.emplace_back(t);
  }
}

std::size_t MixedFusedDP::table_bytes() const {
  std::size_t b = 0;
  for (const auto& t : tables_sp_) b += t.bytes();
  for (const auto& t : tables_hp_) b += t.bytes();
  return b;
}

md::ForceResult MixedFusedDP::compute(const md::Box& box, md::Atoms& atoms,
                                      const md::NeighborList& nlist, bool periodic) {
  const core::DPModel& model = tab_.model();
  const core::ModelConfig& cfg = model.config();
  const std::size_t m = cfg.m();
  const double scale = 1.0 / static_cast<double>(cfg.nm());

  // ---- Pass 1 in single precision: the fused walk + rank-1 contraction of
  // each slot run into A_sp, handed to the descriptor and fitting net in
  // double. ------------------------------------------------------------------
  const auto pass1 = [&](FloatStaging& st, std::size_t i, int ct, double* a_mat) {
    std::memset(st.a.data(), 0, 4 * m * sizeof(float));
    std::size_t slots = 0;
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      const double* rmat = env_.rmat_at(env_.block_begin(i, ty));
      const auto limit = static_cast<std::size_t>(env_.count(i, ty));
      on_table(model.pair_index(ct, ty),
               [&](const auto& table) { table.contract(rmat, limit, st.a.data()); });
      slots += limit;
    }
    for (std::size_t k = 0; k < 4 * m; ++k) a_mat[k] = static_cast<double>(st.a[k]) * scale;
    return slots;
  };

  // ---- Pass 2 in single precision, accumulated into double: re-walk each
  // slot run with the derivative, straight into the gradient dots, whose
  // results overwrite the rows just read (dp/env_mat.hpp). -------------------
  const auto pass2 = [&](FloatStaging& st, std::size_t i, const double* g_a) {
    for (std::size_t k = 0; k < 4 * m; ++k) st.ga[k] = static_cast<float>(g_a[k]);
    for (int ty = 0; ty < cfg.ntypes; ++ty) {
      double* rows = env_.rmat.data() + env_.block_begin(i, ty) * 4;
      const auto limit = static_cast<std::size_t>(env_.count(i, ty));
      on_table(model.pair_index(atoms.type[i], ty), [&](const auto& table) {
        table.contract_gradient(rows, limit, st.ga.data(), rows);
      });
    }
  };

  return run(box, atoms, nlist, periodic, pass1, pass2);
}

}  // namespace dp::fused
