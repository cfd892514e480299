// Mixed-precision fused inference — the paper's stated future work ("the
// mixed-precision versions of code still has accuracy problems and will be
// our future work", Sec 7), following the split its baseline used for its
// Table 1 mixed rows:
//
//   single precision: the per-neighbor embedding work (table evaluation,
//     rank-1 contraction into A, the pass-2 gradient dots) — the 95%-of-
//     FLOPs part;
//   double precision: the descriptor, the fitting network, energies, and
//     all force/virial accumulations (the reductions where float error
//     compounds).
//
// The float stage runs the double path's fused kernels on float lanes, at
// twice its lane width (8 floats AVX2 / 16 floats AVX-512): pass 1 walks
// each slot run and contracts it into A_sp in registers (Table::contract),
// and pass 2 — run once the atom's fitting block is evaluated — re-walks it
// with the derivative for the gradient dots (Table::contract_gradient).
#pragma once

#include <vector>

#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

/// Embedding-stage storage/arithmetic width of the mixed path.
enum class MixedPrecision { Single, Half };

class MixedFusedDP final : public md::ForceField {
 public:
  explicit MixedFusedDP(const tab::TabulatedDP& tabulated,
                        MixedPrecision precision = MixedPrecision::Single);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return tab_.model().config().rcut; }
  /// The mixed path evaluates its own reduced-precision tables, so the
  /// --health extrapolation-rate watchdog must read their counters (the
  /// shared double tables in tab_ never see these lookups).
  std::uint64_t extrapolations() const override {
    std::uint64_t n = 0;
    for (const auto& t : tables_sp_) n += t.extrapolations();
    for (const auto& t : tables_hp_) n += t.extrapolations();
    return n;
  }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return atom_energy_; }
  const core::EnvMat& env() const { return env_; }
  /// Capacity-based bytes of every persistent buffer this model owns.
  std::size_t workspace_bytes() const;
  /// Bytes of the reduced-precision tables (double/2 for Single, /4 for
  /// Half).
  std::size_t table_bytes() const;

 private:
  /// f(table) on the reduced-precision table of pair index idx (both
  /// precisions evaluate in float).
  template <class F>
  void on_table(std::size_t idx, F&& f) const {
    if (precision_ == MixedPrecision::Single)
      f(tables_sp_[idx]);
    else
      f(tables_hp_[idx]);
  }
  void prepare(std::size_t n);

  struct ThreadScratch {
    AlignedVector<float> a_sp, ga_sp;
    core::FitBlocks fit;              ///< pending fitting blocks, one per center type
    double energy_partial = 0.0;  ///< folded by the master, ascending thread order
  };

  const tab::TabulatedDP& tab_;
  MixedPrecision precision_;
  std::vector<tab::TabulatedEmbeddingSP> tables_sp_;
  std::vector<tab::TabulatedEmbeddingHP> tables_hp_;
  core::EnvMat env_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  std::vector<ThreadScratch> scratch_;
  std::vector<double> atom_energy_;
};

}  // namespace dp::fused
