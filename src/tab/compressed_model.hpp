// The "tabulation only" inference path — the first optimization step of
// Fig 7 / Fig 8.
//
// The embedding net's GEMM pipeline is replaced by the quintic table, but the
// dataflow is otherwise the baseline's: the embedding matrix G (and now its
// derivative dG/ds) are still fully materialized over all N_m slots and
// contracted with GEMMs. Kernel fusion and redundancy removal come later
// (src/fused) — keeping the steps separate is what lets the benches reproduce
// the paper's step-by-step speedup decomposition.
#pragma once

#include <vector>

#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "nn/tensor.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::tab {

class CompressedDP final : public md::ForceField {
 public:
  /// `env_kernel` picks the ProdEnvMatA implementation (the Fig 7/8 "other
  /// optimizations" step toggles it). The model must be se_a
  /// (DescriptorKind::SeA); se_r runs on SeRFusedDP.
  explicit CompressedDP(const TabulatedDP& tabulated,
                        core::EnvMatKernel env_kernel = core::EnvMatKernel::Optimized);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return tab_.model().config().rcut; }
  std::uint64_t extrapolations() const override { return tab_.extrapolations(); }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return atom_energy_; }
  const core::EnvMat& env() const { return env_; }
  std::size_t embedding_bytes() const { return embedding_bytes_; }

 private:
  void prepare(std::size_t n);
  /// First G/dG row of atom i within type t's batch.
  std::size_t row_of(int t, std::size_t i) const {
    return row_off_[static_cast<std::size_t>(t) * (env_.n_atoms + 1) + i];
  }
  /// Rows atom i contributes for type t (all reserved slots when dense,
  /// filled slots when compact).
  int rows_of(std::size_t i, int t) const {
    return env_.compact() ? env_.count(i, t)
                          : tab_.model().config().sel[static_cast<std::size_t>(t)];
  }

  const TabulatedDP& tab_;
  core::EnvMatKernel env_kernel_;
  core::EnvMat env_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  AlignedVector<double> g_rmat_;
  std::vector<nn::Matrix> g_by_type_, dg_by_type_;
  AlignedVector<double> g_g_;
  core::FitBlocks fit_;
  std::vector<std::size_t> row_off_;  ///< ntypes * (n + 1) per-type row prefix
  std::vector<double> atom_energy_;
  std::size_t embedding_bytes_ = 0;
};

}  // namespace dp::tab
