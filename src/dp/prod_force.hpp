// ProdForceSeA / ProdVirialSeA: scatter the per-slot environment-matrix
// gradients into atomic forces and the global virial (paper Sec 3.4.3).
//
// Input g_rmat holds dE/dR~ for every stored slot — including the chain
// contribution dE/ds folded into column 0 by the caller — indexed by the
// same global slot index as the EnvMat (so it works on both the dense and
// the compact layout); the fused-kernel paths pass the env rows themselves
// (dp/env_mat.hpp). The kernel contracts it with descrpt_a_deriv and
// applies Newton's third law: the slot contributes +f to the center and -f
// to the neighbor. Force and virial come out of ONE walk over the filled
// slots. Each slot's d = r_j - r_i is recomputed from `atoms.pos` (minimum
// image when `periodic`) as the env build formed it, so the positions must
// be the ones the matrix was built from; on the compact layout each chunk's
// descrpt_a_deriv is rebuilt from d in registers instead of read.
//
// Parallel and DETERMINISTIC: centers are split into kProdForceLanes fixed
// contiguous lanes (independent of the thread count). Each lane scatters
// neighbor contributions into its own force buffer; lanes are folded in
// ascending lane order afterwards, so the floating-point addition order —
// and hence every output bit — is identical at any OMP_NUM_THREADS.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "dp/env_mat.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"

namespace dp::core {

/// Fixed lane count of the deterministic scatter. A constant (not the
/// thread count) so the accumulation tree never depends on OMP_NUM_THREADS;
/// 16 keeps all cores of typical nodes busy while bounding the fold to 16
/// buffer passes.
inline constexpr int kProdForceLanes = 16;

/// Persistent per-lane accumulators, grow-only like the other workspaces.
struct ProdForceWorkspace {
  AlignedVector<double> lane_force;                ///< kProdForceLanes * n * 3
  std::array<Mat3, kProdForceLanes> lane_virial{}; ///< folded in lane order
  std::size_t bytes() const { return lane_force.capacity() * sizeof(double); }
};

/// forces[k] += contributions for both centers and neighbors (ghosts
/// included); forces must be pre-sized to atoms.size() (not cleared here).
/// virial += sum_slots (r_i - r_j) (x) f_slot.
void prod_force_virial(const EnvMat& env, const double* g_rmat, const md::Box& box,
                       const md::Atoms& atoms, bool periodic, std::vector<Vec3>& forces,
                       Mat3& virial, ProdForceWorkspace& ws);

/// Convenience overload with a per-thread persistent workspace.
inline void prod_force_virial(const EnvMat& env, const double* g_rmat, const md::Box& box,
                              const md::Atoms& atoms, bool periodic,
                              std::vector<Vec3>& forces, Mat3& virial) {
  static thread_local ProdForceWorkspace ws;
  prod_force_virial(env, g_rmat, box, atoms, periodic, forces, virial, ws);
}

}  // namespace dp::core
