// The radial se_r descriptor path: exact-gradient forces, trivial rotation
// invariance, and genuinely cheaper than se_a.
#include "fused/se_r_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "dp/baseline_model.hpp"
#include "dp/env_mat.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "tab/compressed_model.hpp"

namespace dp::fused {
namespace {

using core::DescriptorKind;
using core::DPModel;
using core::ModelConfig;
using tab::TabulatedDP;
using tab::TabulationSpec;

ModelConfig se_r_cfg(int ntypes = 1) {
  ModelConfig cfg = ModelConfig::tiny(ntypes);
  cfg.descriptor = DescriptorKind::SeR;
  return cfg;
}

struct SeRFixture {
  DPModel model;
  TabulatedDP tab;
  md::Configuration sys;

  explicit SeRFixture(int ntypes, std::uint64_t seed)
      : model(se_r_cfg(ntypes), seed),
        tab(model, TabulationSpec{0.0, TabulatedDP::s_max(model.config(), 0.9), 0.01}),
        sys(ntypes == 1 ? md::make_fcc(4, 4, 4, 3.634, 63.546, 0.1, seed)
                        : md::make_water(1, 1, 1, seed)) {}
};

TEST(SeR, FittingNetInputIsM) {
  const auto cfg = se_r_cfg();
  EXPECT_EQ(cfg.descriptor_dim(), cfg.m());
  DPModel model(cfg, 1);
  EXPECT_EQ(model.fitting(0).input_dim(), cfg.m());
}

// The untabulated se_r energy, the way DeePMD defines it: the dense env
// matrix, the embedding net over EVERY reserved slot (padded slots carry
// s = 0, so they add g(0)), the column mean of G over the N_m slots, then
// the fitting net.
double se_r_network_energy(const DPModel& model, const md::Configuration& sys,
                           const md::NeighborList& nl) {
  const ModelConfig& cfg = model.config();
  core::EnvMat env;
  core::build_env_mat(cfg, sys.box, sys.atoms, nl, env, core::EnvMatKernel::Baseline);
  const std::size_t m = cfg.m();
  std::vector<double> g(m), d(m);
  nn::FittingNet::Workspace ws;
  double energy = 0.0;
  for (std::size_t i = 0; i < env.n_atoms; ++i) {
    std::fill(d.begin(), d.end(), 0.0);
    for (int t = 0; t < cfg.ntypes; ++t)
      for (int k = 0; k < cfg.sel[static_cast<std::size_t>(t)]; ++k) {
        const double s = env.rmat_at(env.block_begin(i, t) + static_cast<std::size_t>(k))[0];
        model.embedding(t).eval(s, g.data());
        for (std::size_t b = 0; b < m; ++b) d[b] += g[b];
      }
    for (double& v : d) v /= static_cast<double>(cfg.nm());
    energy += model.fitting(sys.atoms.type[i]).forward(d.data(), ws);
  }
  return energy;
}

TEST(SeR, FusedEnergyMatchesNetworkOverAllSlots) {
  // The fused path adds the padded slots analytically through g(0); the
  // reference evaluates the network on every slot.
  const ModelConfig cfg = se_r_cfg();
  DPModel model(cfg, 23);
  TabulatedDP tab(model, {0.0, TabulatedDP::s_max(cfg, 0.9), 0.002});
  SeRFusedDP ff(tab);
  md::Configuration sys = md::make_fcc(2, 2, 2, 3.7, 63.546, 0.1, 24);
  md::NeighborList nl(cfg.rcut, 0.5);
  nl.build(sys.box, sys.atoms.pos);
  const double e_ref = se_r_network_energy(model, sys, nl);
  const double e_fused = ff.compute(sys.box, sys.atoms, nl).energy;
  EXPECT_NEAR(e_ref, e_fused, 1e-7 * static_cast<double>(sys.atoms.size()));
}

TEST(SeR, RejectsSeAModel) {
  DPModel model(ModelConfig::tiny(), 2);
  TabulatedDP tab(model, {0.0, 1.0, 0.05});
  EXPECT_THROW(SeRFusedDP{tab}, Error);
}

TEST(SeR, SeAPathsRejectSeRModel) {
  // The se_a paths build an M< x M descriptor, and a se_r model's fitting
  // net reads M inputs: each path refuses the model instead of returning
  // energies from a misread descriptor.
  DPModel model(se_r_cfg(2), 2);
  TabulatedDP tab(model, {0.0, 1.0, 0.05});
  EXPECT_THROW(FusedDP{tab}, Error);
  EXPECT_THROW(MixedFusedDP{tab}, Error);
  EXPECT_THROW(tab::CompressedDP{tab}, Error);
  EXPECT_THROW(core::BaselineDP{model}, Error);
}

TEST(SeR, ForcesAreNegativeGradient) {
  SeRFixture f(2, 3);
  SeRFusedDP ff(f.tab);
  md::NeighborList nl(ff.cutoff(), 0.5);
  nl.build(f.sys.box, f.sys.atoms.pos);
  ff.compute(f.sys.box, f.sys.atoms, nl);
  const auto forces = f.sys.atoms.force;

  const double h = 1e-6;
  for (std::size_t i : {0ul, 33ul, 150ul}) {
    for (int d = 0; d < 3; ++d) {
      const Vec3 pos0 = f.sys.atoms.pos[i];
      f.sys.atoms.pos[i][d] = pos0[d] + h;
      const double ep = ff.compute(f.sys.box, f.sys.atoms, nl).energy;
      f.sys.atoms.pos[i][d] = pos0[d] - h;
      const double em = ff.compute(f.sys.box, f.sys.atoms, nl).energy;
      f.sys.atoms.pos[i] = pos0;
      EXPECT_NEAR(forces[i][d], -(ep - em) / (2 * h), 2e-6) << "atom " << i << " dim " << d;
    }
  }
}

TEST(SeR, RotationInvarianceExact) {
  // Radial-only: rotating an isolated cluster changes NOTHING but force
  // directions.
  SeRFixture f(1, 4);
  md::Configuration cluster;
  cluster.box = md::Box(100, 100, 100);
  cluster.atoms.mass_by_type = {63.546};
  Rng rng(5);
  for (int k = 0; k < 20; ++k)
    cluster.atoms.add(Vec3{50, 50, 50} + rng.unit_vector() * (3.5 * std::cbrt(rng.uniform())),
                      0);
  SeRFusedDP ff(f.tab);
  md::NeighborList nl(ff.cutoff(), 0.5);
  nl.build(cluster.box, cluster.atoms.pos);
  const double e0 = ff.compute(cluster.box, cluster.atoms, nl).energy;
  const auto f0 = cluster.atoms.force;

  const Mat3 R = rotation(rng.unit_vector(), 0.9);
  md::Configuration rotated = cluster;
  for (auto& r : rotated.atoms.pos) r = Vec3{50, 50, 50} + R * (r - Vec3{50, 50, 50});
  md::NeighborList nl2(ff.cutoff(), 0.5);
  nl2.build(rotated.box, rotated.atoms.pos);
  const double e1 = ff.compute(rotated.box, rotated.atoms, nl2).energy;
  EXPECT_NEAR(e0, e1, 1e-10);
  for (std::size_t i = 0; i < f0.size(); ++i)
    EXPECT_NEAR(norm(R * f0[i] - rotated.atoms.force[i]), 0.0, 1e-9);
}

TEST(SeR, NewtonThirdLaw) {
  SeRFixture f(1, 6);
  SeRFusedDP ff(f.tab);
  md::NeighborList nl(ff.cutoff(), 1.0);
  nl.build(f.sys.box, f.sys.atoms.pos);
  ff.compute(f.sys.box, f.sys.atoms, nl);
  Vec3 total{};
  for (const auto& fo : f.sys.atoms.force) total += fo;
  EXPECT_NEAR(norm(total), 0.0, 1e-10);
}

TEST(SeR, NveEnergyConservation) {
  SeRFixture f(1, 7);
  SeRFusedDP ff(f.tab);
  md::SimulationConfig sc;
  sc.dt = 0.0005;
  sc.steps = 60;
  sc.temperature = 100.0;
  sc.skin = 1.0;
  sc.thermo_every = 15;
  md::Simulation sim(f.sys, ff, sc);
  const auto& trace = sim.run();
  const double e0 = trace.front().total();
  for (const auto& s : trace)
    EXPECT_NEAR(s.total(), e0, 1e-5 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

TEST(SeR, EnergyContinuousAcrossCutoff) {
  // The padding contribution g(0) must make the descriptor smooth as a
  // neighbor crosses the cutoff (DeePMD's reduce-mean-over-all-slots
  // semantics, reproduced analytically here).
  SeRFixture f(1, 9);
  md::Configuration pair;
  pair.box = md::Box(50, 50, 50);
  pair.atoms.mass_by_type = {63.546};
  pair.atoms.add({20, 20, 20}, 0);
  pair.atoms.add({20 + f.model.config().rcut - 1e-7, 20, 20}, 0);  // just inside
  SeRFusedDP ff(f.tab);
  md::NeighborList nl(ff.cutoff(), 1.0);
  nl.build(pair.box, pair.atoms.pos);
  const double e_in = ff.compute(pair.box, pair.atoms, nl).energy;
  pair.atoms.pos[1].x = 20 + f.model.config().rcut + 1e-7;  // just outside
  const double e_out = ff.compute(pair.box, pair.atoms, nl).energy;
  EXPECT_NEAR(e_in, e_out, 1e-8);
}

TEST(SeR, PaddingCountDoesNotChangePhysicsOnlySel) {
  // Two models identical except for the reserved slot count must give the
  // same energies up to the fixed 1/N_m normalization being re-learned —
  // here we check the sharper invariant: with the SAME model, adding a far
  // atom beyond the cutoff changes nothing.
  SeRFixture f(1, 10);
  md::Configuration sys;
  sys.box = md::Box(60, 60, 60);
  sys.atoms.mass_by_type = {63.546};
  sys.atoms.add({30, 30, 30}, 0);
  sys.atoms.add({32, 30, 30}, 0);
  SeRFusedDP ff(f.tab);
  md::NeighborList nl(ff.cutoff(), 1.0);
  nl.build(sys.box, sys.atoms.pos);
  const double e2 = ff.compute(sys.box, sys.atoms, nl).energy;

  sys.atoms.add({50, 50, 50}, 0);  // isolated spectator far outside rc
  md::NeighborList nl3(ff.cutoff(), 1.0);
  nl3.build(sys.box, sys.atoms.pos);
  const double e3 = ff.compute(sys.box, sys.atoms, nl3).energy;
  // The spectator adds its own (isolated-atom) energy but must not perturb
  // the pair: E3 - E2 equals the single-atom reference energy.
  md::Configuration lone;
  lone.box = sys.box;
  lone.atoms.mass_by_type = {63.546};
  lone.atoms.add({30, 30, 30}, 0);
  md::NeighborList nl1(ff.cutoff(), 1.0);
  nl1.build(lone.box, lone.atoms.pos);
  const double e1 = ff.compute(lone.box, lone.atoms, nl1).energy;
  EXPECT_NEAR(e3 - e2, e1, 1e-10);
}

/// Seconds per call that `fn` spends in the TimerRegistry section `section`:
/// the median of five batches of up to 10 calls or 20 ms each, after one
/// untimed warm-up call (dp::time_per_call's guard).
template <class Fn>
double section_seconds_per_call(const std::string& section, Fn&& fn) {
  const TimerRegistry& reg = TimerRegistry::instance();
  fn();
  std::vector<double> samples;
  for (int b = 0; b < 5; ++b) {
    const double before = reg.get(section).total_seconds;
    WallTimer t;
    int calls = 0;
    do {
      fn();
      ++calls;
    } while (t.seconds() < 0.02 && calls < 10);
    samples.push_back((reg.get(section).total_seconds - before) / calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[2];
}

TEST(SeR, CheaperThanSeA) {
  // Same widths, same system: the radial path does ~1/4 the embedding-stage
  // work (no 4-column contraction) plus a much smaller fitting input. The
  // env-mat build and prod-force are the same code on both paths, so the
  // comparison times the descriptor stage, where the two differ.
  SeRFixture radial(1, 8);
  DPModel se_a_model(ModelConfig::tiny(), 8);
  TabulatedDP se_a_tab(se_a_model,
                       {0.0, TabulatedDP::s_max(se_a_model.config(), 0.9), 0.01});
  FusedDP se_a_ff(se_a_tab);
  SeRFusedDP se_r_ff(radial.tab);
  md::NeighborList nl(se_a_ff.cutoff(), 1.0);
  nl.build(radial.sys.box, radial.sys.atoms.pos);
  // Median of several batches: wall-clock comparisons on a shared core flip
  // on scheduler bursts when taken from a single sample each.
  const double t_a = section_seconds_per_call(
      "fused.descriptor", [&] { se_a_ff.compute(radial.sys.box, radial.sys.atoms, nl); });
  const double t_r = section_seconds_per_call(
      "se_r.descriptor", [&] { se_r_ff.compute(radial.sys.box, radial.sys.atoms, nl); });
  EXPECT_LT(t_r, t_a);
}

}  // namespace
}  // namespace dp::fused
