#include "bp/behler_parrinello.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"

namespace dp::bp {
namespace {

BpConfig small_cfg() {
  BpConfig cfg;
  cfg.rcut = 4.5;
  cfg.eta = {2.0, 2.0, 0.5, 0.5};
  cfg.rs = {2.0, 3.5, 2.0, 3.5};
  cfg.hidden = {12, 12};
  return cfg;
}

TEST(BehlerParrinello, ForcesMatchFiniteDifference) {
  BehlerParrinello bp(small_cfg(), 3);
  auto sys = md::make_fcc(4, 4, 4, 3.7, 63.546, 0.1, 4);
  md::NeighborList nl(bp.cutoff(), 0.5);
  nl.build(sys.box, sys.atoms.pos);
  bp.compute(sys.box, sys.atoms, nl);
  const auto forces = sys.atoms.force;

  const double h = 1e-6;
  for (std::size_t i : {0ul, 42ul, 111ul}) {
    for (int d = 0; d < 3; ++d) {
      const Vec3 pos0 = sys.atoms.pos[i];
      sys.atoms.pos[i][d] = pos0[d] + h;
      const double ep = bp.compute(sys.box, sys.atoms, nl).energy;
      sys.atoms.pos[i][d] = pos0[d] - h;
      const double em = bp.compute(sys.box, sys.atoms, nl).energy;
      sys.atoms.pos[i] = pos0;
      EXPECT_NEAR(forces[i][d], -(ep - em) / (2 * h), 2e-6) << "atom " << i << " dim " << d;
    }
  }
}

TEST(BehlerParrinello, RotationInvariant) {
  // Radial features only: energies invariant, forces covariant.
  BehlerParrinello bp(small_cfg(), 5);
  md::Configuration cluster;
  cluster.box = md::Box(100, 100, 100);
  cluster.atoms.mass_by_type = {63.546};
  Rng rng(6);
  for (int k = 0; k < 18; ++k)
    cluster.atoms.add(Vec3{50, 50, 50} + rng.unit_vector() * (3.0 * std::cbrt(rng.uniform())),
                      0);
  md::NeighborList nl(bp.cutoff(), 0.5);
  nl.build(cluster.box, cluster.atoms.pos);
  const double e0 = bp.compute(cluster.box, cluster.atoms, nl).energy;
  const auto f0 = cluster.atoms.force;

  const Mat3 R = rotation(rng.unit_vector(), 1.1);
  md::Configuration rot = cluster;
  for (auto& r : rot.atoms.pos) r = Vec3{50, 50, 50} + R * (r - Vec3{50, 50, 50});
  md::NeighborList nl2(bp.cutoff(), 0.5);
  nl2.build(rot.box, rot.atoms.pos);
  EXPECT_NEAR(bp.compute(rot.box, rot.atoms, nl2).energy, e0, 1e-10);
  for (std::size_t i = 0; i < f0.size(); ++i)
    EXPECT_NEAR(norm(R * f0[i] - rot.atoms.force[i]), 0.0, 1e-9);
}

TEST(BehlerParrinello, SmoothAtCutoff) {
  BehlerParrinello bp(small_cfg(), 7);
  md::Configuration pair;
  pair.box = md::Box(50, 50, 50);
  pair.atoms.mass_by_type = {1.0};
  pair.atoms.add({20, 20, 20}, 0);
  pair.atoms.add({20 + bp.cutoff() - 1e-7, 20, 20}, 0);
  md::NeighborList nl(bp.cutoff(), 1.0);
  nl.build(pair.box, pair.atoms.pos);
  const double e_in = bp.compute(pair.box, pair.atoms, nl).energy;
  pair.atoms.pos[1].x = 20 + bp.cutoff() + 1e-7;
  const double e_out = bp.compute(pair.box, pair.atoms, nl).energy;
  EXPECT_NEAR(e_in, e_out, 1e-9);
}

TEST(BehlerParrinello, NveConservesEnergy) {
  BehlerParrinello bp(small_cfg(), 8);
  auto sys = md::make_fcc(3, 3, 3, 3.7);
  md::SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.001;
  sc.steps = 100;
  sc.temperature = 150.0;
  sc.thermo_every = 25;
  md::Simulation sim(sys, bp, sc);
  const auto& trace = sim.run();
  const double e0 = trace.front().total();
  for (const auto& s : trace)
    EXPECT_NEAR(s.total(), e0, 1e-4 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

TEST(BehlerParrinello, NewtonThirdLaw) {
  BehlerParrinello bp(small_cfg(), 9);
  auto sys = md::make_fcc(4, 4, 4, 3.7, 63.546, 0.08, 10);
  md::NeighborList nl(bp.cutoff(), 0.5);
  nl.build(sys.box, sys.atoms.pos);
  bp.compute(sys.box, sys.atoms, nl);
  Vec3 total{};
  for (const auto& f : sys.atoms.force) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-10);
}

TEST(BehlerParrinello, ConfigValidation) {
  BpConfig bad = small_cfg();
  bad.rs.pop_back();
  EXPECT_THROW(BehlerParrinello{bad}, Error);
  BpConfig bad2 = small_cfg();
  bad2.rcut = -1;
  EXPECT_THROW(BehlerParrinello{bad2}, Error);
}

}  // namespace
}  // namespace dp::bp
