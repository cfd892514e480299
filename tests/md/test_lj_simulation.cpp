#include <gtest/gtest.h>

#include <algorithm>

#include "md/lj.hpp"
#include "md/simulation.hpp"

namespace dp::md {
namespace {

// LJ parameters loosely matching copper (for substrate testing only).
LennardJones make_lj() { return LennardJones(0.4, 2.34, 6.0); }
// Short-ranged variant so small periodic boxes satisfy the min-image bound.
LennardJones make_lj_short() { return LennardJones(0.4, 2.34, 4.5); }

TEST(LennardJones, MinimumAtR0) {
  auto lj = make_lj();
  const double r0 = 2.34 * std::pow(2.0, 1.0 / 6.0);
  EXPECT_NEAR(lj.pair_force(r0), 0.0, 1e-10);
  EXPECT_NEAR(lj.pair_energy(r0), -0.4, 1e-12);
  EXPECT_GT(lj.pair_force(r0 * 0.9), 0.0);  // repulsive inside
  EXPECT_LT(lj.pair_force(r0 * 1.1), 0.0);  // attractive outside
}

TEST(LennardJones, ForcesMatchFiniteDifferenceOfEnergy) {
  auto cfg = make_fcc(4, 4, 4, 3.7, 63.5, /*jitter=*/0.08, 11);
  auto lj = make_lj();
  NeighborList nl(lj.cutoff(), 1.0);
  nl.build(cfg.box, cfg.atoms.pos);

  auto res = lj.compute(cfg.box, cfg.atoms, nl);
  auto f = cfg.atoms.force;

  const double h = 1e-6;
  for (std::size_t i : {0ul, 5ul, 17ul}) {
    for (int d = 0; d < 3; ++d) {
      auto pos0 = cfg.atoms.pos[i];
      cfg.atoms.pos[i][d] = pos0[d] + h;
      const double ep = lj.compute(cfg.box, cfg.atoms, nl).energy;
      cfg.atoms.pos[i][d] = pos0[d] - h;
      const double em = lj.compute(cfg.box, cfg.atoms, nl).energy;
      cfg.atoms.pos[i] = pos0;
      EXPECT_NEAR(f[i][d], -(ep - em) / (2 * h), 1e-6) << "atom " << i << " dim " << d;
    }
  }
  (void)res;
}

TEST(LennardJones, NewtonThirdLawTotalForceZero) {
  auto cfg = make_fcc(4, 4, 4, 3.7, 63.5, 0.05, 12);
  auto lj = make_lj();
  NeighborList nl(lj.cutoff(), 1.0);
  nl.build(cfg.box, cfg.atoms.pos);
  lj.compute(cfg.box, cfg.atoms, nl);
  Vec3 total{};
  for (const auto& f : cfg.atoms.force) total += f;
  EXPECT_NEAR(norm(total), 0.0, 1e-9);
}

TEST(LennardJones, PerfectLatticeHasZeroForces) {
  auto cfg = make_fcc(4, 4, 4, 3.7);
  auto lj = make_lj();
  NeighborList nl(lj.cutoff(), 1.0);
  nl.build(cfg.box, cfg.atoms.pos);
  lj.compute(cfg.box, cfg.atoms, nl);
  for (const auto& f : cfg.atoms.force) EXPECT_NEAR(norm(f), 0.0, 1e-9);
}

TEST(LennardJones, VirialMatchesStrainDerivative) {
  // tr(W) = -3 V dU/dV under uniform dilation: check by rescaling the box.
  auto cfg = make_fcc(4, 4, 4, 3.7, 63.5, 0.05, 13);
  auto lj = make_lj();
  NeighborList nl(lj.cutoff(), 1.5);
  nl.build(cfg.box, cfg.atoms.pos);
  auto res = lj.compute(cfg.box, cfg.atoms, nl);

  const double h = 1e-6;
  auto energy_scaled = [&](double s) {
    Configuration scaled;
    scaled.box = Box(cfg.box.lengths() * s);
    scaled.atoms = cfg.atoms;
    for (auto& r : scaled.atoms.pos) r *= s;
    NeighborList nl2(lj.cutoff(), 1.5);
    nl2.build(scaled.box, scaled.atoms.pos);
    return lj.compute(scaled.box, scaled.atoms, nl2).energy;
  };
  // dE/ds at s=1 equals -tr(W) (virial sign convention: W = -1/2 sum r x f,
  // with f the force on i; uniform scaling gives dE/ds = sum_i r_i . dE/dr_i).
  const double dE_ds = (energy_scaled(1 + h) - energy_scaled(1 - h)) / (2 * h);
  EXPECT_NEAR(res.virial.trace(), -dE_ds, 5e-5 * std::max(1.0, std::abs(dE_ds)));
}

TEST(Simulation, NveConservesEnergy) {
  auto cfg = make_fcc(3, 3, 3, 3.7, 63.5, 0.0, 14);
  auto lj = make_lj_short();
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.steps = 200;
  sc.temperature = 300.0;
  sc.thermo_every = 10;
  Simulation sim(cfg, lj, sc);
  const auto& trace = sim.run();
  ASSERT_GE(trace.size(), 3u);
  const double e0 = trace.front().total();
  for (const auto& s : trace) {
    EXPECT_NEAR(s.total(), e0, 5e-4 * cfg.atoms.size() * 0.01 + 0.05)
        << "drift at step " << s.step;
  }
}

TEST(Simulation, ProtocolCounts99Steps100Evaluations) {
  // Paper Sec 4: "99 MD steps ... energy and forces are evaluated 100 times".
  auto cfg = make_fcc(3, 3, 3, 3.7);
  auto lj = make_lj_short();
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.steps = 99;
  Simulation sim(cfg, lj, sc);
  sim.run();
  EXPECT_EQ(sim.current_step(), 99);
  EXPECT_EQ(sim.force_evaluations(), 100);
}

TEST(Simulation, ThermoSampledEvery50Steps) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  auto lj = make_lj_short();
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.steps = 99;
  sc.thermo_every = 50;
  Simulation sim(cfg, lj, sc);
  const auto& trace = sim.run();
  ASSERT_EQ(trace.size(), 3u);  // steps 0, 50, 99
  EXPECT_EQ(trace[0].step, 0);
  EXPECT_EQ(trace[1].step, 50);
  EXPECT_EQ(trace[2].step, 99);
}

TEST(Simulation, TemperatureStaysPhysical) {
  auto cfg = make_fcc(3, 3, 3, 3.7);
  auto lj = make_lj_short();
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.steps = 100;
  sc.temperature = 330.0;
  sc.thermo_every = 20;
  Simulation sim(cfg, lj, sc);
  for (const auto& s : sim.run()) {
    EXPECT_GT(s.temperature, 50.0);
    EXPECT_LT(s.temperature, 700.0);
  }
}

TEST(Simulation, ConfigurationHidesTheGhosts) {
  // A serial run is a one-rank world with periodic-image ghosts: the
  // neighbor list reaches past the N input atoms, configuration() does not.
  auto cfg = make_fcc(3, 3, 3, 3.7);
  auto lj = make_lj_short();
  SimulationConfig sc;
  sc.skin = 1.0;
  sc.steps = 5;
  Simulation sim(cfg, lj, sc);
  sim.run();
  const std::size_t n = cfg.atoms.size();
  const NeighborList& nl = sim.neighbor_list();
  ASSERT_EQ(nl.n_centers(), n);
  std::size_t max_j = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (int j : nl.neighbors(i)) max_j = std::max(max_j, static_cast<std::size_t>(j));
  EXPECT_GE(max_j, n);  // the driver holds ghosts
  const Configuration& view = sim.configuration();
  ASSERT_EQ(view.atoms.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(view.atoms.type[i], cfg.atoms.type[i]);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_GE(view.atoms.pos[i][d], 0.0);
      EXPECT_LT(view.atoms.pos[i][d], view.box.lengths()[d]);
    }
  }
}

TEST(Simulation, RejectsBoxSmallerThanCutoff) {
  auto cfg = make_fcc(1, 1, 1, 3.7);  // 3.7 A box vs 6 A cutoff
  auto lj = make_lj();
  EXPECT_THROW(Simulation(cfg, lj, {}), Error);
}

}  // namespace
}  // namespace dp::md
