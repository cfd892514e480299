#include "parallel/distributed_md.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>

#include "dp/baseline_model.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/lj.hpp"
#include "md/simulation.hpp"
#include "tab/tabulated_model.hpp"

namespace dp::par {
namespace {

md::SimulationConfig fast_sim(int steps) {
  md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = steps;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.rebuild_every = 5;
  sc.thermo_every = 5;
  return sc;
}

TEST(DistributedMd, SingleStepForcesMatchSerialLJ) {
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.08, 51);
  md::SimulationConfig sc = fast_sim(0);

  // Serial reference forces at t = 0.
  md::LennardJones serial_lj(0.4, 2.34, 4.5);
  md::NeighborList nl(serial_lj.cutoff(), sc.skin);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms serial_atoms = sys.atoms;
  const auto serial_res = serial_lj.compute(sys.box, serial_atoms, nl);

  DistributedOptions opts;
  opts.grid = {2, 2, 2};
  opts.gather_state = true;
  opts.init_velocities = false;
  const auto result = run_distributed_md(
      8, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts);

  ASSERT_EQ(result.final_force.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(result.final_force[i] - serial_atoms.force[i]), 1e-9) << "atom " << i;
  EXPECT_NEAR(result.thermo.front().potential, serial_res.energy, 1e-8);
}

TEST(DistributedMd, SingleStepForcesMatchSerialFusedDP) {
  core::DPModel model(core::ModelConfig::tiny(), 52);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(model.config(), 0.9), 0.005};
  tab::TabulatedDP tabulated(model, spec);

  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.08, 53);
  md::SimulationConfig sc = fast_sim(0);

  fused::FusedDP serial_ff(tabulated);
  md::NeighborList nl(serial_ff.cutoff(), sc.skin);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms serial_atoms = sys.atoms;
  const auto serial_res = serial_ff.compute(sys.box, serial_atoms, nl);

  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.gather_state = true;
  opts.init_velocities = false;
  const auto result = run_distributed_md(
      4, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts);

  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(result.final_force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
  EXPECT_NEAR(result.thermo.front().potential, serial_res.energy,
              1e-9 * static_cast<double>(sys.atoms.size()));
}

TEST(DistributedMd, TrajectoryIndependentOfRankCount) {
  // The decomposition must not change the physics: after 10 steps the
  // positions from 1-rank and 4-rank runs agree to integration roundoff.
  core::DPModel model(core::ModelConfig::tiny(), 54);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(model.config(), 0.9), 0.005};
  tab::TabulatedDP tabulated(model, spec);
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.05, 55);
  md::SimulationConfig sc = fast_sim(10);

  DistributedOptions o1;
  o1.grid = {1, 1, 1};
  o1.gather_state = true;
  DistributedOptions o4;
  o4.grid = {2, 2, 1};
  o4.gather_state = true;

  auto factory = [&] { return std::make_unique<fused::FusedDP>(tabulated); };
  const auto r1 = run_distributed_md(1, sys, factory, sc, o1);
  const auto r4 = run_distributed_md(4, sys, factory, sc, o4);

  ASSERT_EQ(r1.final_pos.size(), r4.final_pos.size());
  for (std::size_t i = 0; i < r1.final_pos.size(); ++i) {
    EXPECT_LT(norm(sys.box.min_image(r1.final_pos[i] - r4.final_pos[i])), 1e-7)
        << "atom " << i;
    EXPECT_LT(norm(r1.final_vel[i] - r4.final_vel[i]), 1e-7);
  }
}

TEST(DistributedMd, NveConservation4Ranks) {
  core::DPModel model(core::ModelConfig::tiny(), 56);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(model.config(), 0.9), 0.005};
  tab::TabulatedDP tabulated(model, spec);
  auto sys = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.02, 57);
  md::SimulationConfig sc = fast_sim(40);
  sc.temperature = 100.0;
  sc.dt = 0.0005;

  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  const auto result = run_distributed_md(
      4, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts);

  ASSERT_GE(result.thermo.size(), 3u);
  const double e0 = result.thermo.front().total();
  for (const auto& s : result.thermo)
    EXPECT_NEAR(s.total(), e0, 1e-5 * std::max(1.0, std::abs(e0))) << "step " << s.step;
}

TEST(DistributedMd, CommVolumeGrowsWithRankCount) {
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.05, 58);
  md::SimulationConfig sc = fast_sim(5);
  auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };

  DistributedOptions o2;
  o2.grid = {2, 1, 1};
  DistributedOptions o8;
  o8.grid = {2, 2, 2};
  const auto r2 = run_distributed_md(2, sys, factory, sc, o2);
  const auto r8 = run_distributed_md(8, sys, factory, sc, o8);
  // More ranks -> more ghost-region traffic (the Sec 3.3 granularity point).
  EXPECT_GT(r8.comm.bytes, r2.comm.bytes);
}

TEST(DistributedMd, ReportsLocalAndGhostCounts) {
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.0, 59);
  md::SimulationConfig sc = fast_sim(1);
  DistributedOptions opts;
  opts.grid = {2, 2, 2};
  const auto r = run_distributed_md(
      8, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts);
  // 2048 atoms over 8 ranks: 256 each (perfect lattice), plus a ghost shell.
  EXPECT_EQ(r.max_local_atoms, 256u);
  EXPECT_GT(r.max_ghost_atoms, 200u);
  // Perfect lattice on a commensurate grid: near-perfect balance.
  EXPECT_NEAR(r.load_imbalance, 1.0, 0.05);
}

TEST(DistributedMd, LoadImbalanceDetectsUnevenGrid) {
  // 3 ranks across 8 cells cannot split evenly: imbalance > 1.
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.0, 60);
  md::SimulationConfig sc = fast_sim(1);
  DistributedOptions opts;
  opts.grid = {3, 1, 1};
  const auto r = run_distributed_md(
      3, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts);
  EXPECT_GT(r.load_imbalance, 1.05);
}

TEST(DistributedMd, WaterTwoTypesMatchSerial) {
  core::ModelConfig cfg = core::ModelConfig::tiny(2);
  core::DPModel model(cfg, 71);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.01};
  tab::TabulatedDP tabulated(model, spec);

  auto sys = md::make_water(2, 2, 2, 72);  // 24.8 A box, 1536 atoms
  md::SimulationConfig sc = fast_sim(0);

  fused::FusedDP serial_ff(tabulated);
  md::NeighborList nl(serial_ff.cutoff(), sc.skin);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms serial_atoms = sys.atoms;
  serial_ff.compute(sys.box, serial_atoms, nl);

  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.gather_state = true;
  opts.init_velocities = false;
  const auto result = run_distributed_md(
      4, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts);
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(result.final_force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
}

TEST(DistributedMd, DisplacementTriggerKeepsParityUnderAggressiveDynamics) {
  // Hot atoms, a thin skin, and rebuild_every far beyond the trajectory
  // length: the fixed-period rebuild never fires, so correctness rests
  // entirely on the skin/2 displacement trigger (the serial driver has
  // always applied it; the distributed driver historically did not).
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.1, 81);
  md::SimulationConfig sc;
  sc.dt = 0.002;
  sc.steps = 100;
  sc.temperature = 3000.0;
  sc.skin = 0.2;
  sc.rebuild_every = 1000;
  sc.thermo_every = 100;
  sc.seed = 82;

  md::LennardJones serial_lj(0.4, 2.34, 4.5);
  md::Simulation serial(sys, serial_lj, sc);
  serial.run();
  const auto& serial_atoms = serial.configuration().atoms;

  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.gather_state = true;
  const auto r = run_distributed_md(
      4, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts);

  // The trigger must actually fire — otherwise this test proves nothing.
  EXPECT_GE(r.early_rebuilds, 1u);
  EXPECT_GE(r.neighbor_rebuilds, r.early_rebuilds);
  ASSERT_EQ(r.final_force.size(), serial_atoms.size());
  for (std::size_t i = 0; i < serial_atoms.size(); ++i)
    EXPECT_LT(norm(r.final_force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
}

TEST(DistributedMd, WithoutDisplacementTriggerAggressiveDynamicsDiverges) {
  // Same scenario with the trigger disabled: the distributed run must go
  // visibly wrong (stale lists let atoms slip past the skin — or an atom
  // outruns migration entirely and the post-condition throws). This pins
  // down that the parity test above discriminates against the old behavior.
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.1, 81);
  md::SimulationConfig sc;
  sc.dt = 0.002;
  sc.steps = 100;
  sc.temperature = 3000.0;
  sc.skin = 0.2;
  sc.rebuild_every = 1000;
  sc.thermo_every = 100;
  sc.seed = 82;

  md::LennardJones serial_lj(0.4, 2.34, 4.5);
  md::Simulation serial(sys, serial_lj, sc);
  serial.run();
  const auto& serial_atoms = serial.configuration().atoms;

  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.gather_state = true;
  opts.displacement_rebuild = false;
  double max_err = 0.0;
  try {
    const auto r = run_distributed_md(
        4, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc,
        opts);
    EXPECT_EQ(r.early_rebuilds, 0u);
    for (std::size_t i = 0; i < serial_atoms.size(); ++i)
      max_err = std::max(max_err, norm(r.final_force[i] - serial_atoms.force[i]));
  } catch (const Error&) {
    max_err = 1.0;  // crashing on the migrate post-condition also counts
  }
  EXPECT_GT(max_err, 1e-3);
}

/// Forwards to Lennard-Jones and counts compute() calls into a slot the
/// test reads after the run (each rank owns one instance, hence one slot).
class CountingForceField final : public md::ForceField {
 public:
  explicit CountingForceField(std::atomic<int>* calls) : calls_(calls) {}
  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return lj_.compute(box, atoms, nlist, periodic);
  }
  double cutoff() const override { return lj_.cutoff(); }

 private:
  md::LennardJones lj_{0.4, 2.34, 4.5};
  std::atomic<int>* calls_;
};

TEST(DistributedMd, OneComputeCallPerForceEvaluation) {
  // The step is the LAMMPS cycle: ghost refresh, one compute() over every
  // local center, ghost-force reduction. Rebuild steps and plain steps
  // alike make exactly one call, plus the initial evaluation.
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.05, 83);
  md::SimulationConfig sc = fast_sim(12);
  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  std::array<std::atomic<int>, 4> calls{};
  std::atomic<int> next_slot{0};
  const auto r = run_distributed_md(
      4, sys,
      [&] { return std::make_unique<CountingForceField>(&calls[next_slot.fetch_add(1)]); }, sc,
      opts);
  EXPECT_EQ(next_slot.load(), 4);
  for (const auto& c : calls) EXPECT_EQ(c.load(), sc.steps + 1);
  EXPECT_GE(r.neighbor_rebuilds, 2u);
}

TEST(DistributedMd, PairModeAndMixedPathsWork) {
  core::ModelConfig cfg = core::ModelConfig::tiny(2);
  cfg.type_one_side = false;  // per-pair embedding nets
  core::DPModel model(cfg, 73);
  tab::TabulationSpec spec{0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.01};
  tab::TabulatedDP tabulated(model, spec);

  auto sys = md::make_water(2, 2, 2, 74);
  md::SimulationConfig sc = fast_sim(3);
  DistributedOptions opts;
  opts.grid = {2, 1, 1};
  const auto fused_run = run_distributed_md(
      2, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts);
  const auto mixed_run = run_distributed_md(
      2, sys, [&] { return std::make_unique<fused::MixedFusedDP>(tabulated); }, sc, opts);
  // Same trajectory start: the mixed path tracks the double path closely.
  EXPECT_NEAR(fused_run.thermo.front().potential, mixed_run.thermo.front().potential,
              1e-4 * sys.atoms.size());
}

/// A crystal next to a vacuum gap along x: the uniform slab grid leaves the
/// upper ranks nearly empty, the canonical inhomogeneous workload the
/// measurement-driven rebalancer exists for (paper Fig 6c's "carefully
/// divided" sub-regions, made automatic).
md::Configuration make_vacuum_gap_system() {
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.05, 77);
  const Vec3 L = sys.box.lengths();
  sys.box = md::Box(2.0 * L.x, L.y, L.z);  // atoms stay in [0, L.x)
  return sys;
}

TEST(DistributedMd, RebalanceReducesVacuumGapImbalance) {
  auto sys = make_vacuum_gap_system();
  md::SimulationConfig sc = fast_sim(16);
  sc.rebuild_every = 2;  // frequent rebuilds so the rebalancer gets to act

  DistributedOptions opts;
  opts.grid = {4, 1, 1};
  opts.gather_state = true;
  const auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };
  const auto fixed = run_distributed_md(4, sys, factory, sc, opts);

  opts.rebalance = true;
  opts.rebalance_every = 2;
  const auto balanced = run_distributed_md(4, sys, factory, sc, opts);

  // Half the box is empty, so the uniform grid is badly off (>= ~2x) and the
  // acceptance bar is a >= 25% reduction in max/mean.
  EXPECT_GT(fixed.load_imbalance, 1.5);
  EXPECT_LE(balanced.load_imbalance, 0.75 * fixed.load_imbalance);

  // Rebalancing only moves ownership, never physics: per-atom forces agree
  // to summation roundoff (state is gathered sorted by global id).
  ASSERT_EQ(balanced.final_force.size(), fixed.final_force.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < fixed.final_force.size(); ++i)
    max_diff = std::max(max_diff, norm(balanced.final_force[i] - fixed.final_force[i]));
  EXPECT_LT(max_diff, 1e-12);
}

TEST(DistributedMd, RebalanceOffReproducesBitwise) {
  // The rebalancer must be invisible when disabled: two runs are bitwise
  // identical and no boundary ever moves.
  auto sys = make_vacuum_gap_system();
  md::SimulationConfig sc = fast_sim(8);
  DistributedOptions opts;
  opts.grid = {4, 1, 1};
  opts.gather_state = true;
  const auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };
  const auto a = run_distributed_md(4, sys, factory, sc, opts);
  const auto b = run_distributed_md(4, sys, factory, sc, opts);

  EXPECT_EQ(a.boundary_shifts, 0u);
  EXPECT_EQ(b.boundary_shifts, 0u);
  ASSERT_EQ(a.final_pos.size(), b.final_pos.size());
  for (std::size_t i = 0; i < a.final_pos.size(); ++i) {
    EXPECT_EQ(a.final_pos[i].x, b.final_pos[i].x);
    EXPECT_EQ(a.final_force[i].x, b.final_force[i].x);
    EXPECT_EQ(a.final_force[i].y, b.final_force[i].y);
    EXPECT_EQ(a.final_force[i].z, b.final_force[i].z);
  }
  ASSERT_EQ(a.thermo.size(), b.thermo.size());
  for (std::size_t i = 0; i < a.thermo.size(); ++i)
    EXPECT_EQ(a.thermo[i].potential, b.thermo[i].potential);
}

}  // namespace
}  // namespace dp::par
