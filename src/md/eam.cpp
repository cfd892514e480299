#include "md/eam.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dp::md {

SuttonChen::SuttonChen(Params params) : p_(params) {
  DP_CHECK(p_.epsilon > 0 && p_.a > 0 && p_.c > 0);
  DP_CHECK(p_.n > p_.m && p_.m > 0);
  DP_CHECK(p_.rcut > p_.rcut_smth && p_.rcut_smth > 0);
}

void SuttonChen::gate(double r, double& w, double& dw) const {
  if (r < p_.rcut_smth) {
    w = 1.0;
    dw = 0.0;
    return;
  }
  if (r >= p_.rcut) {
    w = 0.0;
    dw = 0.0;
    return;
  }
  const double span = p_.rcut - p_.rcut_smth;
  const double x = (r - p_.rcut_smth) / span;
  const double x2 = x * x;
  // Clamp at 0: cancellation noise near x = 1 can land a hair below zero,
  // and the sqrt embedding turns any negative density into NaN.
  w = std::max(0.0, 1.0 + x2 * x * (-10.0 + x * (15.0 - 6.0 * x)));
  dw = x2 * (-30.0 + x * (60.0 - 30.0 * x)) / span;
}

ForceResult SuttonChen::compute(const Box& box, Atoms& atoms, const NeighborList& nlist,
                                bool periodic) {
  const std::size_t n = nlist.n_centers();
  DP_CHECK_MSG(n == atoms.size() || forward_,
               "SuttonChen needs F'(rho) on ghosts: without a forward pass every atom must "
               "be a center");
  const double rc2 = p_.rcut * p_.rcut;

  // ---- Pass 1: densities of the centers -------------------------------
  rho_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - atoms.pos[i];
      if (periodic) d = box.min_image(d);
      const double r2 = norm2(d);
      if (r2 >= rc2) continue;
      const double r = std::sqrt(r2);
      double w, dw;
      gate(r, w, dw);
      acc += std::pow(p_.a / r, p_.m) * w;
    }
    rho_[i] = std::max(acc, 0.0);
  }

  // dF/drho = -c / (2 sqrt(rho)) of every center (0 for isolated atoms),
  // forwarded onto the ghosts.
  f_prime_.assign(atoms.size(), 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (rho_[i] > 0.0) f_prime_[i] = -p_.c / (2.0 * std::sqrt(rho_[i]));
  if (n < atoms.size()) forward_(f_prime_);

  // ---- Pass 2: energy + forces ----------------------------------------
  // Each center takes its whole force from its own list, so ghosts receive
  // none and every pair is visited once from each side.
  ForceResult out;
  atoms.zero_forces();
  double e_pair = 0.0, e_embed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    e_embed -= p_.c * std::sqrt(rho_[i]);
    Vec3 fi{};
    for (int j : nlist.neighbors(i)) {
      Vec3 d = atoms.pos[static_cast<std::size_t>(j)] - atoms.pos[i];
      if (periodic) d = box.min_image(d);
      const double r2 = norm2(d);
      if (r2 >= rc2) continue;
      const double r = std::sqrt(r2);
      double w, dw;
      gate(r, w, dw);
      const double pair = std::pow(p_.a / r, p_.n);
      const double dens = std::pow(p_.a / r, p_.m);
      e_pair += 0.5 * pair * w;
      // d(pair * w)/dr and d(dens * w)/dr
      const double dpair = -p_.n / r * pair * w + pair * dw;
      const double ddens = -p_.m / r * dens * w + dens * dw;
      // dE/dd of the pair: phi' plus the embedding terms of both atoms.
      const double g =
          p_.epsilon * (dpair + (f_prime_[i] + f_prime_[static_cast<std::size_t>(j)]) * ddens);
      const Vec3 fpair = d * (g / r);  // F_i = +dE/dd
      fi += fpair;
      out.virial += outer(d, fpair) * (-0.5);  // half per visit
    }
    atoms.force[i] = fi;
  }
  out.energy = p_.epsilon * e_pair + p_.epsilon * e_embed;
  return out;
}

}  // namespace dp::md
