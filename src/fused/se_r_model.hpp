// Fused inference for the radial se_r descriptor.
//
// D_i[b] = (1/N_m) sum_j g_b(s(r_ij)) — only the gated inverse distance
// enters, so the descriptor is rotation-invariant trivially and the whole
// directional machinery (the 4-column environment matrix contraction)
// disappears. Roughly 4x less embedding-stage arithmetic than se_a at equal
// widths, at the cost of a far less expressive representation; DeePMD ships
// both, and so does this library. Uses the same quintic tables, environment
// matrices and force scatter as the se_a paths.
//
// Padding note: se_r lacks se_a's zero-row protection — a padded slot
// contributes g(0), not 0, and that is what makes the descriptor SMOOTH: as
// a neighbor leaves the cutoff its s decays to 0 and its row continuously
// becomes the padding value. The kernel therefore adds n_padded * g(0)
// analytically (g(0) cached per table) instead of walking padded slots —
// redundancy removal stays exact AND the energy stays continuous.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "fused/skeleton.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::fused {

class SeRFusedDP final : public Skeleton<> {
 public:
  /// The model must be configured with DescriptorKind::SeR (the fitting-net
  /// input is M, not M< x M).
  explicit SeRFusedDP(const tab::TabulatedDP& tabulated);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;

 private:
  std::vector<AlignedVector<double>> g_zero_;  ///< g(0) per embedding table
};

}  // namespace dp::fused
