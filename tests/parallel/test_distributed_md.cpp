#include "parallel/distributed_md.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <optional>

#include "common/thread_annotations.hpp"
#include "dp/baseline_model.hpp"
#include "fused/fused_model.hpp"
#include "fused/mixed_model.hpp"
#include "md/eam.hpp"
#include "md/lj.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "parallel/minimpi.hpp"
#include "tab/tabulated_model.hpp"

#include "final_state.hpp"

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
  opts.init_velocities = false;
  md::Configuration state;
  const auto result = run_distributed_md(
      8, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts,
      keep_final_state(sc.steps, state));

  ASSERT_EQ(state.atoms.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(state.atoms.force[i] - serial_atoms.force[i]), 1e-9) << "atom " << i;
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
  opts.init_velocities = false;
  md::Configuration state;
  const auto result = run_distributed_md(
      4, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts,
      keep_final_state(sc.steps, state));

  ASSERT_EQ(state.atoms.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(state.atoms.force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
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
  DistributedOptions o4;
  o4.grid = {2, 2, 1};

  auto factory = [&] { return std::make_unique<fused::FusedDP>(tabulated); };
  md::Configuration s1, s4;
  run_distributed_md(1, sys, factory, sc, o1, keep_final_state(sc.steps, s1));
  run_distributed_md(4, sys, factory, sc, o4, keep_final_state(sc.steps, s4));

  ASSERT_EQ(s1.atoms.size(), sys.atoms.size());
  ASSERT_EQ(s4.atoms.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i) {
    EXPECT_LT(norm(sys.box.min_image(s1.atoms.pos[i] - s4.atoms.pos[i])), 1e-7)
        << "atom " << i;
    EXPECT_LT(norm(s1.atoms.vel[i] - s4.atoms.vel[i]), 1e-7);
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
  // The count-equalized x planes fall between lattice planes 7 and 8, the
  // uniform split, so every rank still owns exactly 256.
  EXPECT_EQ(r.max_local_atoms, 256u);
  EXPECT_GT(r.max_ghost_atoms, 200u);
  // Perfect lattice on a commensurate grid: near-perfect balance.
  EXPECT_NEAR(r.load_imbalance, 1.0, 0.05);
}

TEST(DistributedMd, LoadImbalanceDetectsUnevenGrid) {
  // 3 ranks across 8 cells cannot split evenly: the 16 lattice planes of
  // 128 atoms each land 5/5/6 on the count-equalized slabs, imbalance 1.125.
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
  opts.init_velocities = false;
  md::Configuration state;
  run_distributed_md(
      4, sys, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, sc, opts,
      keep_final_state(sc.steps, state));
  ASSERT_EQ(state.atoms.size(), sys.atoms.size());
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    EXPECT_LT(norm(state.atoms.force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
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
  md::Configuration state;
  const auto r = run_distributed_md(
      4, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts,
      keep_final_state(sc.steps, state));

  // The trigger must actually fire — otherwise this test proves nothing.
  EXPECT_GE(r.early_rebuilds, 1u);
  EXPECT_GE(r.neighbor_rebuilds, r.early_rebuilds);
  ASSERT_EQ(state.atoms.size(), serial_atoms.size());
  for (std::size_t i = 0; i < serial_atoms.size(); ++i)
    EXPECT_LT(norm(state.atoms.force[i] - serial_atoms.force[i]), 1e-8) << "atom " << i;
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
/// count-equalized planes exist for (paper Fig 6c's "carefully divided"
/// sub-regions).
md::Configuration make_vacuum_gap_system() {
  auto sys = md::make_fcc(6, 6, 6, 3.7, 63.5, 0.05, 77);
  const Vec3 L = sys.box.lengths();
  sys.box = md::Box(2.0 * L.x, L.y, L.z);  // atoms stay in [0, L.x)
  return sys;
}

TEST(DistributedMd, RebalanceReducesVacuumGapImbalance) {
  auto sys = make_vacuum_gap_system();
  md::SimulationConfig sc = fast_sim(16);
  sc.rebuild_every = 2;  // frequent migrations across the placed planes

  // The uniform grid's max/mean atoms per rank over the initial positions:
  // half the box is empty, so about 2.
  const Decomp uniform(sys.box, Decomp::choose_grid(sys.box, 4));
  std::array<double, 4> counts{};
  for (const Vec3& p : sys.atoms.pos)
    counts[static_cast<std::size_t>(uniform.owner_of(p))] += 1.0;
  const double uniform_imbalance = *std::max_element(counts.begin(), counts.end()) * 4.0 /
                                   static_cast<double>(sys.atoms.size());
  EXPECT_GT(uniform_imbalance, 1.5);

  // Default options: the driver's only decomposition is the count-equalized
  // one, and the acceptance bar is a >= 25% reduction in max/mean.
  const auto factory = [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); };
  md::Configuration slab_state, single_state;
  const auto slabs = run_distributed_md(4, sys, factory, sc, {},
                                        keep_final_state(sc.steps, slab_state));
  EXPECT_LE(slabs.load_imbalance, 0.75 * uniform_imbalance);

  // The planes only move ownership, never physics: per-atom forces agree
  // with a 1-rank run to summation roundoff (state is gathered sorted by
  // global id).
  run_distributed_md(1, sys, factory, sc, {}, keep_final_state(sc.steps, single_state));
  ASSERT_EQ(slab_state.atoms.size(), sys.atoms.size());
  ASSERT_EQ(single_state.atoms.size(), sys.atoms.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < sys.atoms.size(); ++i)
    max_diff =
        std::max(max_diff, norm(slab_state.atoms.force[i] - single_state.atoms.force[i]));
  EXPECT_LT(max_diff, 1e-12);
}

/// Step-0 state of a world: energy and virial summed over ranks (each rank
/// records what its force field returned), forces gathered by atom id.
struct Step0 {
  double energy = 0.0;
  Mat3 virial{};
  std::vector<Vec3> force;
};

/// Wraps a force field and records the first ForceResult it returns; the
/// ghost forward pass is passed through to the wrapped field.
class RecordingForceField final : public md::ForceField {
 public:
  explicit RecordingForceField(std::unique_ptr<md::ForceField> inner)
      : inner_(std::move(inner)) {}
  md::ForceResult compute(const md::Box& box, md::Atoms& atoms, const md::NeighborList& nlist,
                          bool periodic) override {
    const md::ForceResult r = inner_->compute(box, atoms, nlist, periodic);
    if (!first_) first_ = r;
    return r;
  }
  double cutoff() const override { return inner_->cutoff(); }
  void set_ghost_forward(GhostForward forward) override {
    inner_->set_ghost_forward(std::move(forward));
  }
  md::ForceResult first() const { return first_.value(); }

 private:
  std::unique_ptr<md::ForceField> inner_;
  std::optional<md::ForceResult> first_;
};

Step0 world_step0(int nranks, const md::Configuration& sys, const ForceFieldFactory& factory) {
  Step0 out;
  Mutex mu;
  run_parallel(nranks, [&](Communicator& comm) {
    RecordingForceField ff(factory());
    DistributedOptions opts;
    opts.init_velocities = false;
    DistributedMd md(comm, sys, ff, fast_sim(0), opts);
    const md::ForceResult r = ff.first();
    std::vector<double> parts{r.energy};
    parts.insert(parts.end(), r.virial.m.begin(), r.virial.m.end());
    const auto total = comm.allreduce_sum(parts);
    md::Configuration state = md.gather();
    if (comm.rank() != 0) return;
    MutexLock lock(mu);
    out.energy = total[0];
    std::copy(total.begin() + 1, total.end(), out.virial.m.begin());
    out.force = std::move(state.atoms.force);
  });
  return out;
}

/// Step 0 of an `nranks` world against the independent reference: the
/// force field's own minimum-image compute() over the whole box.
void expect_step0_matches_min_image(int nranks, const md::Configuration& sys,
                                    const ForceFieldFactory& factory, double rel_tol) {
  SCOPED_TRACE(testing::Message() << nranks << " rank(s)");
  const auto ref_ff = factory();
  md::NeighborList nl(ref_ff->cutoff(), fast_sim(0).skin);
  nl.build(sys.box, sys.atoms.pos);
  md::Atoms ref_atoms = sys.atoms;
  const md::ForceResult ref = ref_ff->compute(sys.box, ref_atoms, nl);

  const Step0 got = world_step0(nranks, sys, factory);
  EXPECT_NEAR(got.energy, ref.energy, rel_tol * std::abs(ref.energy));
  double w_scale = 0.0, f_scale = 0.0;
  for (double w : ref.virial.m) w_scale = std::max(w_scale, std::abs(w));
  for (std::size_t k = 0; k < 9; ++k)
    EXPECT_NEAR(got.virial.m[k], ref.virial.m[k], rel_tol * w_scale) << "virial " << k;
  for (const Vec3& f : ref_atoms.force) f_scale = std::max(f_scale, norm(f));
  ASSERT_EQ(got.force.size(), ref_atoms.force.size());
  for (std::size_t i = 0; i < got.force.size(); ++i)
    EXPECT_LT(norm(got.force[i] - ref_atoms.force[i]), rel_tol * f_scale) << "atom " << i;
}

TEST(DistributedMd, EamForwardPassMatchesMinImageOnCopperSlab) {
  // The force on a center needs F'(rho) of its ghost neighbors: the world
  // forwards it along the halo plan. A copper crystal next to a vacuum gap,
  // on 1, 2 and 4 ranks, against SuttonChen's own minimum-image compute.
  auto sys = md::make_fcc(6, 6, 6, 3.61, 63.546, 0.08, 91);
  const Vec3 L = sys.box.lengths();
  sys.box = md::Box(2.0 * L.x, L.y, L.z);
  const auto factory = [] { return std::make_unique<md::SuttonChen>(); };
  for (int nranks : {1, 2, 4}) expect_step0_matches_min_image(nranks, sys, factory, 1e-12);
}

TEST(DistributedMd, OneRankWorldMatchesMinImageForEveryFamily) {
  // A serial run is a one-rank world with periodic-image ghosts; each
  // force-field family keeps its minimum-image compute() as the reference.
  const auto cu = md::make_fcc(6, 6, 6, 3.634, 63.546, 0.08, 92);
  expect_step0_matches_min_image(
      1, cu, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, 1e-12);
  expect_step0_matches_min_image(
      1, cu, [] { return std::make_unique<md::SuttonChen>(); }, 1e-12);

  core::ModelConfig cfg = core::ModelConfig::tiny(2);
  core::DPModel model(cfg, 93);
  tab::TabulatedDP tabulated(model, {0.0, tab::TabulatedDP::s_max(cfg, 0.9), 0.01});
  const auto water = md::make_water(2, 2, 2, 94);
  expect_step0_matches_min_image(
      1, water, [&] { return std::make_unique<fused::FusedDP>(tabulated); }, 1e-12);
  expect_step0_matches_min_image(
      1, water, [&] { return std::make_unique<fused::MixedFusedDP>(tabulated); }, 1e-12);
}

TEST(DistributedMd, CountersCountEachWorldEventOnce) {
  // Rank threads share the process's registry: rank 0 alone counts, so the
  // md.* names mean the same on threads as on shm/tcp.
  auto sys = md::make_fcc(8, 8, 8, 3.7, 63.5, 0.05, 95);
  md::SimulationConfig sc = fast_sim(12);
  sc.rebuild_every = 4;
  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  auto& reg = obs::MetricsRegistry::instance();
  reg.clear();
  const auto r = run_distributed_md(
      4, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts);
  EXPECT_GE(r.neighbor_rebuilds, 3u);
  EXPECT_EQ(reg.counter("md.steps").value(), static_cast<std::uint64_t>(sc.steps));
  EXPECT_EQ(reg.counter("md.neighbor_rebuilds").value(), r.neighbor_rebuilds);
  EXPECT_EQ(reg.counter("md.early_rebuilds").value(), r.early_rebuilds);
  EXPECT_EQ(reg.counter("md.force_evals").value(), static_cast<std::uint64_t>(sc.steps + 1));
  EXPECT_EQ(reg.histogram("md.step_seconds").count(), static_cast<std::uint64_t>(sc.steps));
}

/// NVT/NPT on a 4-rank world, with the bounds the serial tests hold
/// (test_thermostat_dump.cpp) on the same systems.
md::SimulationConfig coupled_sim(int steps, double temperature) {
  md::SimulationConfig sc;
  sc.skin = 1.0;
  sc.dt = 0.002;
  sc.steps = steps;
  sc.temperature = temperature;
  sc.thermo_every = 50;
  return sc;
}

DistributedRunResult run_lj_4ranks(const md::Configuration& sys, const md::SimulationConfig& sc,
                                   const SampleHook& hook = {}) {
  DistributedOptions opts;
  opts.grid = {2, 2, 1};
  return run_distributed_md(
      4, sys, [] { return std::make_unique<md::LennardJones>(0.4, 2.34, 4.5); }, sc, opts,
      hook);
}

TEST(DistributedMd, LangevinHoldsTemperatureOn4Ranks) {
  md::LangevinThermostat thermostat(330.0, 0.1, 7);
  md::SimulationConfig sc = coupled_sim(300, 330.0);
  sc.thermostat = &thermostat;
  const auto r = run_lj_4ranks(md::make_fcc(3, 3, 3, 3.7), sc);
  EXPECT_NEAR(r.thermo.back().temperature, 330.0, 100.0);
}

TEST(DistributedMd, NoseHooverHoldsTargetTemperatureOn4Ranks) {
  md::NoseHooverThermostat thermostat(330.0, 0.05);
  md::SimulationConfig sc = coupled_sim(1500, 330.0);
  sc.thermostat = &thermostat;
  const auto r = run_lj_4ranks(md::make_fcc(3, 3, 3, 3.7), sc);
  double avg = 0.0;
  int count = 0;
  for (const auto& s : r.thermo)
    if (s.step > 750) {
      avg += s.temperature;
      ++count;
    }
  EXPECT_NEAR(avg / count, 330.0, 90.0);
}

TEST(DistributedMd, NptRelaxesPressureTowardTargetOn4Ranks) {
  md::BerendsenBarostat barostat(0.0, 0.05, 1e-5);
  md::SimulationConfig sc = coupled_sim(150, 100.0);
  sc.thermo_every = 150;
  sc.barostat = &barostat;
  double volume = 0.0;
  const auto r = run_lj_4ranks(md::make_fcc(4, 4, 4, 3.55), sc,
                               [&](DistributedMd& md, const md::ThermoSample&) {
                                 if (md.rank() == 0) volume = md.box().volume();
                               });
  EXPECT_GT(volume, std::pow(3.55 * 4, 3));  // box expanded
  EXPECT_LT(std::abs(r.thermo.back().pressure_bar), std::abs(r.thermo.front().pressure_bar));
}

}  // namespace
}  // namespace dp::par
