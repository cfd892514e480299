#include "md/integrator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "md/units.hpp"

namespace dp::md {

void init_velocities(Atoms& atoms, double temperature_k, std::uint64_t seed) {
  DP_CHECK(temperature_k >= 0.0);
  const std::size_t n = atoms.size();
  if (n == 0) return;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double std_v = std::sqrt(kBoltzmann * temperature_k / (atoms.mass(i) * kMv2ToEv));
    atoms.vel[i] = {rng.gaussian(0.0, std_v), rng.gaussian(0.0, std_v),
                    rng.gaussian(0.0, std_v)};
  }
  // Remove center-of-mass momentum.
  Vec3 p{};
  double mtot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    p += atoms.vel[i] * atoms.mass(i);
    mtot += atoms.mass(i);
  }
  const Vec3 v_com = p * (1.0 / mtot);
  for (auto& v : atoms.vel) v -= v_com;
  // Rescale so the instantaneous temperature is exactly the target.
  if (n > 1 && temperature_k > 0.0) {
    const double t_now = temperature(atoms);
    if (t_now > 0.0) {
      const double s = std::sqrt(temperature_k / t_now);
      for (auto& v : atoms.vel) v *= s;
    }
  }
}

void verlet_first_half(Atoms& atoms, double dt, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 0.5 * dt * kForceToAccel / atoms.mass(i);
    atoms.vel[i] += atoms.force[i] * s;
    atoms.pos[i] += atoms.vel[i] * dt;
  }
}

void verlet_second_half(Atoms& atoms, double dt, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s = 0.5 * dt * kForceToAccel / atoms.mass(i);
    atoms.vel[i] += atoms.force[i] * s;
  }
}

double kinetic_energy(const Atoms& atoms) { return kinetic_energy(atoms, atoms.size()); }

double kinetic_energy(const Atoms& atoms, std::size_t n) {
  double ke = 0.0;
  for (std::size_t i = 0; i < n; ++i) ke += 0.5 * atoms.mass(i) * norm2(atoms.vel[i]);
  return ke * kMv2ToEv;
}

double temperature(const Atoms& atoms) {
  return temperature(kinetic_energy(atoms), atoms.size());
}

double temperature(double kinetic, std::size_t n) {
  if (n < 2) return 0.0;
  const double dof = 3.0 * static_cast<double>(n) - 3.0;
  return 2.0 * kinetic / (dof * kBoltzmann);
}

}  // namespace dp::md
