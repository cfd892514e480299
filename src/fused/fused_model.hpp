// The fully optimized inference path (paper Sec 3.4 / 3.5).
//
// Kernel fusion: the tabulated embedding row g(s_j) is evaluated and
// immediately contracted into A = (1/N_m) R~^T G as a rank-1 update — one
// row lives in registers at a time; the embedding matrix G is never
// allocated (Fig 3's dashed lines). The backward pass re-walks the slots and
// re-evaluates the (cheap) table instead of loading a stored G.
//
// Redundancy removal: with the compact CSR environment matrix (the default
// `Optimized` kernel) only filled slots are ever stored or walked — the
// padded zeros of Sec 3.4.2 don't exist in memory at all. With the dense
// `Baseline` kernel the slot loops still skip the padded tail of each type
// block when `skip_padding` is set (Fig 4) — exact, because a padded slot's
// environment-matrix row is identically zero.
#pragma once

#include <cstddef>
#include <vector>

#include "dp/descriptor.hpp"
#include "dp/env_mat.hpp"
#include "dp/prod_force.hpp"
#include "md/force_field.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

struct FusedOptions {
  bool skip_padding = true;   ///< redundancy removal (Sec 3.4.2), dense layout only
  core::EnvMatKernel env_kernel = core::EnvMatKernel::Optimized;  ///< ProdEnvMatA variant
  /// Cache each atom's embedding rows (value + derivative) in a per-thread
  /// buffer during pass 1 so pass 2 reads instead of re-walking the table —
  /// one table evaluation per slot instead of two, at O(N_m x M) scratch per
  /// atom of a pending fitting block (the analog of the CUDA kernel's
  /// shared-memory staging).
  bool cache_rows = false;
};

class FusedDP final : public md::ForceField {
 public:
  explicit FusedDP(const tab::TabulatedDP& tabulated, FusedOptions opts = {});

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return tab_.model().config().rcut; }
  std::uint64_t extrapolations() const override { return tab_.extrapolations(); }
  std::size_t neighbor_reservation() const override {
    return static_cast<std::size_t>(tab_.model().config().nm());
  }

  const std::vector<double>& atom_energies() const { return atom_energy_; }
  const core::EnvMat& env() const { return env_; }

  /// Slot statistics of the last compute() — Fig 4's redundancy story.
  std::size_t slots_processed() const { return slots_processed_; }
  std::size_t slots_total() const { return slots_total_; }
  /// Capacity-based bytes of every persistent buffer this model owns.
  std::size_t workspace_bytes() const;

 private:
  /// Per-thread scratch, sized once by prepare() and indexed by
  /// omp_get_thread_num() inside the parallel region.
  struct ThreadScratch {
    AlignedVector<double> g_row, dg_row, row_cache;
    core::FitBlocks fit;  ///< pending fitting blocks, one per center type
    // Per-thread reduction partials, folded by the master in ascending
    // thread order after the team joins (no shared reduction frame).
    std::size_t slots_partial = 0;
    double energy_partial = 0.0;
    std::size_t bytes() const {
      return (g_row.capacity() + dg_row.capacity() + row_cache.capacity()) * sizeof(double) +
             fit.bytes();
    }
  };
  void prepare(std::size_t n);

  const tab::TabulatedDP& tab_;
  FusedOptions opts_;
  core::EnvMat env_;
  core::EnvMatWorkspace env_ws_;
  core::ProdForceWorkspace prod_ws_;
  AlignedVector<double> g_rmat_;
  std::vector<ThreadScratch> scratch_;
  std::vector<double> atom_energy_;
  std::size_t slots_processed_ = 0;
  std::size_t slots_total_ = 0;
};

}  // namespace dp::fused
