// Sutton-Chen embedded-atom potential — a many-body metal reference.
//
//   E = eps * [ 1/2 sum_{i != j} (a/r_ij)^n  -  c * sum_i sqrt(rho_i) ],
//   rho_i = sum_j (a/r_ij)^m
//
// Serves two purposes: a second, many-body verification target for the MD
// substrate (LJ is pairwise), and more realistic training labels for the
// copper workflows (the sqrt-embedding gives the many-body character DP
// models are built to capture). Both the pair term and the density are
// multiplied by a C2 polynomial gate so energy and forces vanish smoothly
// at the cutoff.
#pragma once

#include <vector>

#include "md/force_field.hpp"

namespace dp::md {

class SuttonChen final : public ForceField {
 public:
  struct Params {
    double epsilon = 1.2382e-2;  ///< energy scale [eV] (Cu)
    double a = 3.61;             ///< lattice parameter scale [A] (Cu)
    double c = 39.432;           ///< embedding strength (Cu)
    int n = 9;                   ///< pair exponent (Cu)
    int m = 6;                   ///< density exponent (Cu)
    double rcut = 7.0;           ///< cutoff [A]
    double rcut_smth = 6.0;      ///< gate onset [A]
  };

  SuttonChen() : SuttonChen(Params{}) {}
  explicit SuttonChen(Params params);

  /// Many-body: the force on a center needs F'(rho) of every neighbor. The
  /// centers' densities come from their full lists; ghosts (atoms past
  /// nlist.n_centers()) get theirs through the forward pass the driver
  /// handed over, so without one every atom must be a center.
  ForceResult compute(const Box& box, Atoms& atoms, const NeighborList& nlist,
                      bool periodic = true) override;
  double cutoff() const override { return p_.rcut; }
  void set_ghost_forward(GhostForward forward) override { forward_ = std::move(forward); }

  const Params& params() const { return p_; }
  /// Density of each center from the last compute().
  const std::vector<double>& densities() const { return rho_; }

 private:
  /// gate w(r) and derivative: 1 below rcut_smth, C2 decay to 0 at rcut.
  void gate(double r, double& w, double& dw) const;

  Params p_;
  GhostForward forward_;
  std::vector<double> rho_;
  std::vector<double> f_prime_;  ///< F'(rho) of every atom, ghosts included
};

}  // namespace dp::md
