#include "md/thermostat.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "md/integrator.hpp"
#include "md/units.hpp"

namespace dp::md {

LangevinThermostat::LangevinThermostat(double temperature, double damping, std::uint64_t seed)
    : t_target_(temperature), damping_(damping), seed_(seed), rng_(seed) {
  DP_CHECK(temperature >= 0.0 && damping > 0.0);
}

void LangevinThermostat::couple(Atoms& atoms, std::size_t n, double, double dt) {
  // BBK-style velocity update: v <- c v + sqrt((1 - c^2) kT / m) xi,
  // c = exp(-dt / tau). Exact for the Ornstein-Uhlenbeck part.
  const double c = std::exp(-dt / damping_);
  const double noise = std::sqrt(1.0 - c * c);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma =
        std::sqrt(kBoltzmann * t_target_ / (atoms.mass(i) * kMv2ToEv));
    Vec3& v = atoms.vel[i];
    v = v * c + Vec3{rng_.gaussian(), rng_.gaussian(), rng_.gaussian()} * (noise * sigma);
  }
}

std::unique_ptr<Thermostat> LangevinThermostat::for_rank(int rank) const {
  const auto r = static_cast<std::uint64_t>(rank);
  return std::make_unique<LangevinThermostat>(t_target_, damping_,
                                              seed_ ^ (r * 0x9e3779b97f4a7c15ULL));
}

BerendsenThermostat::BerendsenThermostat(double temperature, double tau)
    : t_target_(temperature), tau_(tau) {
  DP_CHECK(temperature >= 0.0 && tau > 0.0);
}

void BerendsenThermostat::couple(Atoms& atoms, std::size_t n, double t_now, double dt) {
  if (t_now <= 0.0) return;
  const double lambda = std::sqrt(1.0 + dt / tau_ * (t_target_ / t_now - 1.0));
  for (std::size_t i = 0; i < n; ++i) atoms.vel[i] *= lambda;
}

std::unique_ptr<Thermostat> BerendsenThermostat::for_rank(int) const {
  return std::make_unique<BerendsenThermostat>(*this);
}

NoseHooverThermostat::NoseHooverThermostat(double temperature, double tau)
    : t_target_(temperature), tau_(tau) {
  DP_CHECK(temperature > 0.0 && tau > 0.0);
}

void NoseHooverThermostat::couple(Atoms& atoms, std::size_t n, double t_now, double dt) {
  // Half-step friction update, velocity scaling, half-step update again —
  // the standard operator splitting for a single Nose-Hoover chain. Scaling
  // every velocity by s scales the temperature by s^2, so the second half
  // needs no second reduction.
  const double q = tau_ * tau_;  // thermostat "mass" in reduced form
  xi_ += 0.5 * dt / q * (t_now / t_target_ - 1.0);
  const double s = std::exp(-xi_ * dt);
  for (std::size_t i = 0; i < n; ++i) atoms.vel[i] *= s;
  xi_ += 0.5 * dt / q * (t_now * s * s / t_target_ - 1.0);
}

std::unique_ptr<Thermostat> NoseHooverThermostat::for_rank(int) const {
  return std::make_unique<NoseHooverThermostat>(*this);
}

BerendsenBarostat::BerendsenBarostat(double pressure_bar, double tau, double compressibility)
    : p_target_(pressure_bar), tau_(tau), kappa_(compressibility) {
  DP_CHECK(tau > 0.0 && compressibility > 0.0);
}

double BerendsenBarostat::scale_factor(double current_pressure_bar, double dt) const {
  // mu = [1 - dt/tau * kappa * (P_target - P)]^(1/3), clamped to keep one
  // step from deforming the box more than ~1%.
  const double mu3 = 1.0 - dt / tau_ * kappa_ * (p_target_ - current_pressure_bar);
  const double mu = std::cbrt(std::clamp(mu3, 0.97, 1.03));
  return mu;
}

}  // namespace dp::md
