#include "md/integrator.hpp"

#include <gtest/gtest.h>

#include "md/lattice.hpp"
#include "md/units.hpp"

namespace dp::md {
namespace {

TEST(Integrator, InitVelocitiesHitsTargetTemperature) {
  auto cfg = make_fcc(4, 4, 4);
  init_velocities(cfg.atoms, 330.0, 1);
  EXPECT_NEAR(temperature(cfg.atoms), 330.0, 1e-9);
}

TEST(Integrator, InitVelocitiesRemovesDrift) {
  auto cfg = make_water(1, 1, 1);
  init_velocities(cfg.atoms, 330.0, 2);
  Vec3 p{};
  for (std::size_t i = 0; i < cfg.atoms.size(); ++i)
    p += cfg.atoms.vel[i] * cfg.atoms.mass(i);
  EXPECT_NEAR(norm(p), 0.0, 1e-9);
}

TEST(Integrator, ZeroTemperatureMeansZeroVelocity) {
  auto cfg = make_fcc(2, 2, 2);
  init_velocities(cfg.atoms, 0.0, 3);
  for (const auto& v : cfg.atoms.vel) EXPECT_NEAR(norm(v), 0.0, 1e-12);
}

TEST(Integrator, FreeParticleDriftsLinearly) {
  Atoms atoms;
  atoms.mass_by_type = {10.0};
  atoms.add({5.0, 5.0, 5.0}, 0);
  atoms.vel[0] = {1.0, -2.0, 0.5};  // A/ps
  atoms.force[0] = {};
  const double dt = 0.001;
  for (int i = 0; i < 1000; ++i) {
    verlet_first_half(atoms, dt, atoms.size());
    verlet_second_half(atoms, dt, atoms.size());
  }
  EXPECT_NEAR(atoms.pos[0].x, 6.0, 1e-9);
  EXPECT_NEAR(atoms.pos[0].y, 3.0, 1e-9);
  EXPECT_NEAR(atoms.pos[0].z, 5.5, 1e-9);
}

TEST(Integrator, ConstantForceMatchesKinematics) {
  // x(t) = x0 + v0 t + a t^2 / 2 under constant force.
  Atoms atoms;
  atoms.mass_by_type = {5.0};
  atoms.add({0.0, 0.0, 0.0}, 0);
  const double f = 2.0;  // eV/A
  const double a = f * kForceToAccel / 5.0;
  const double dt = 1e-4;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    atoms.force[0] = {f, 0, 0};
    verlet_first_half(atoms, dt, atoms.size());
    atoms.force[0] = {f, 0, 0};
    verlet_second_half(atoms, dt, atoms.size());
  }
  const double t = n * dt;
  EXPECT_NEAR(atoms.pos[0].x, 0.5 * a * t * t, 1e-6);
  EXPECT_NEAR(atoms.vel[0].x, a * t, 1e-9);
}

TEST(Integrator, KineticEnergyFormula) {
  Atoms atoms;
  atoms.mass_by_type = {2.0};
  atoms.add({0, 0, 0}, 0);
  atoms.vel[0] = {3.0, 0.0, 4.0};  // |v|^2 = 25
  EXPECT_NEAR(kinetic_energy(atoms), 0.5 * 2.0 * 25.0 * kMv2ToEv, 1e-15);
}

TEST(Integrator, TemperatureOfSingleAtomIsZero) {
  Atoms atoms;
  atoms.mass_by_type = {1.0};
  atoms.add({0, 0, 0}, 0);
  atoms.vel[0] = {10, 0, 0};
  EXPECT_DOUBLE_EQ(temperature(atoms), 0.0);
}

TEST(Integrator, HarmonicOscillatorConservesEnergy) {
  // Spring force f = -k x, k in eV/A^2: Verlet should conserve energy to
  // O(dt^2) over many periods.
  Atoms atoms;
  atoms.mass_by_type = {1.0};
  atoms.add({1.0, 0.0, 0.0}, 0);
  const double k = 1.0;
  auto spring = [&] { atoms.force[0] = atoms.pos[0] * (-k); };
  spring();
  const double e0 = kinetic_energy(atoms) + 0.5 * k * norm2(atoms.pos[0]);
  const double dt = 1e-4;
  for (int i = 0; i < 20000; ++i) {
    verlet_first_half(atoms, dt, atoms.size());
    spring();
    verlet_second_half(atoms, dt, atoms.size());
  }
  const double e1 = kinetic_energy(atoms) + 0.5 * k * norm2(atoms.pos[0]);
  EXPECT_NEAR(e1, e0, 1e-4 * std::max(1.0, std::abs(e0)));  // O((w*dt)^2) bound
}

TEST(Integrator, VelocityDistributionByMass) {
  // Heavier species must receive proportionally slower velocities:
  // <v^2> ~ 1/m. Water has m_O / m_H ~ 15.9.
  auto cfg = make_water(2, 2, 2);
  init_velocities(cfg.atoms, 300.0, 4);
  double v2_o = 0, v2_h = 0;
  std::size_t n_o = 0, n_h = 0;
  for (std::size_t i = 0; i < cfg.atoms.size(); ++i) {
    if (cfg.atoms.type[i] == 0) {
      v2_o += norm2(cfg.atoms.vel[i]);
      ++n_o;
    } else {
      v2_h += norm2(cfg.atoms.vel[i]);
      ++n_h;
    }
  }
  const double ratio = (v2_h / n_h) / (v2_o / n_o);
  EXPECT_NEAR(ratio, kMassO / kMassH, 2.5);
}

}  // namespace
}  // namespace dp::md
