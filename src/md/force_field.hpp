// Interface every potential implements (LJ reference, the DP model paths).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"
#include "md/neighbor.hpp"

namespace dp::md {

/// Result of one energy/force evaluation.
struct ForceResult {
  double energy = 0.0;  ///< total potential energy [eV]
  Mat3 virial{};        ///< virial tensor  sum_pairs r (x) f  [eV]
};

class ForceField {
 public:
  virtual ~ForceField() = default;

  /// Computes forces for the first `nlist.n_centers()` atoms into
  /// atoms.force (overwritten) and returns total energy + virial.
  /// Positions beyond the centers are ghosts (the MD driver's periodic
  /// images and neighbor-rank atoms) and may receive force contributions,
  /// which the driver folds back onto their owners. `periodic` selects
  /// minimum-image distances instead, for callers without ghosts.
  virtual ForceResult compute(const Box& box, Atoms& atoms, const NeighborList& nlist,
                              bool periodic = true) = 0;

  /// Cutoff radius the neighbor list must cover.
  virtual double cutoff() const = 0;

  /// Forward halo pass of one per-atom scalar: fills the ghost slots of
  /// `values` (one value per atom of the compute() call, centers first)
  /// with the values of the atoms they image.
  using GhostForward = std::function<void(std::vector<double>& values)>;
  /// The distributed driver hands its forward pass over before the first
  /// compute(). Many-body potentials that need a per-atom scalar on ghosts
  /// (EAM's F'(rho)) keep it; the rest ignore it.
  virtual void set_ghost_forward(GhostForward forward) { (void)forward; }

  /// Cumulative out-of-domain model evaluations (tabulated paths count
  /// table extrapolations; analytic potentials have none). Telemetry for
  /// the health.extrapolation_rate watchdog.
  virtual std::uint64_t extrapolations() const { return 0; }

  /// Neighbor-slot reservation per atom (the model's N_m), or 0 when the
  /// potential has no fixed reservation. Feeds the neighbor-occupancy
  /// watchdog (longest list / reservation).
  virtual std::size_t neighbor_reservation() const { return 0; }
};

}  // namespace dp::md
