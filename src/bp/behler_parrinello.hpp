// Behler-Parrinello neural-network potential (radial G2 symmetry functions)
// — the OTHER MLMD scheme of the paper's Table 1 (Simple-NN, Singraber et
// al.), implemented so the comparison rows have an in-tree counterpart.
//
//   G2_k(i) = sum_j exp(-eta_k (r_ij - Rs_k)^2) * fc(r_ij),
//   fc(r)   = 1/2 (cos(pi r / rc) + 1)   for r < rc,
//   E_i     = NN_{type(i)}(G2_1..G2_K),  E = sum_i E_i,
//
// with analytic forces through the feature Jacobian. Angular (G4) functions
// are omitted — the radial set is what the cost comparison needs; adding
// G4 changes the constant, not the structure. Features are species-blind;
// each center type has its own network (as in the original BP scheme).
#pragma once

#include <vector>

#include "md/force_field.hpp"
#include "nn/fitting_net.hpp"

namespace dp::bp {

struct BpConfig {
  double rcut = 6.0;
  /// Gaussian widths and centers; one feature per (eta[k], rs[k]) pair.
  std::vector<double> eta = {4.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<double> rs = {1.5, 2.5, 3.5, 4.5, 1.5, 2.5, 3.5, 4.5};
  std::vector<std::size_t> hidden = {24, 24};
  int ntypes = 1;

  std::size_t n_features() const { return eta.size(); }
  void validate() const;
};

class BehlerParrinello final : public md::ForceField {
 public:
  explicit BehlerParrinello(BpConfig config, std::uint64_t seed = 2022);

  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic = true) override;
  double cutoff() const override { return cfg_.rcut; }

  const BpConfig& config() const { return cfg_; }
  const std::vector<double>& atom_energies() const { return atom_energy_; }

 private:
  BpConfig cfg_;
  std::vector<nn::FittingNet> nets_;  // per center type
  std::vector<double> atom_energy_;
};

}  // namespace dp::bp
