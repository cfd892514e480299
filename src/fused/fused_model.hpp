// The fully optimized inference path (paper Sec 3.4 / 3.5).
//
// Kernel fusion: the tabulated embedding row g(s_j) is evaluated and
// contracted into A = (1/N_m) R~^T G while it is still in registers — one
// kernel per (atom, neighbor type) slot run, Table::contract, keeps the row
// and a channel chunk of A in registers; the embedding matrix G is never
// allocated, not even one row of it (Fig 3's dashed lines). The backward
// pass re-walks the slots with the derivative (Table::contract_gradient)
// instead of loading a stored G, and writes dE/dR~ over the env-matrix rows
// it has just read: no gradient buffer exists beside the matrix.
//
// Redundancy removal: with the compact CSR environment matrix (the default
// `Optimized` kernel) only filled slots are ever stored or walked — the
// padded zeros of Sec 3.4.2 don't exist in memory at all. With the dense
// `Baseline` kernel the slot loops still skip the padded tail of each type
// block when `skip_padding` is set (Fig 4) — exact, because a padded slot's
// environment-matrix row is identically zero.
#pragma once

#include "dp/env_mat.hpp"
#include "fused/skeleton.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

struct FusedOptions {
  bool skip_padding = true;   ///< redundancy removal (Sec 3.4.2), dense layout only
  core::EnvMatKernel env_kernel = core::EnvMatKernel::Optimized;  ///< ProdEnvMatA variant
};

/// The model must be se_a (DescriptorKind::SeA); se_r runs on SeRFusedDP.
class FusedDP final : public Skeleton<> {
 public:
  explicit FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts = {});

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;

 private:
  FusedOptions opts_;
};

}  // namespace dp::fused
