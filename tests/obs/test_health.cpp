#include "obs/health.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "md/lj.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "parallel/distributed_md.hpp"

namespace {

using dp::obs::HealthConfig;
using dp::obs::HealthMonitor;
using dp::obs::HealthState;
using dp::obs::MetricsRegistry;
using dp::obs::StepSignals;
using dp::obs::Watchdog;
using dp::obs::WatchdogSpec;

WatchdogSpec spec(double warn, double fatal, int raise_after = 1, int clear_after = 3) {
  WatchdogSpec s;
  s.name = "test.dog";
  s.warn = warn;
  s.fatal = fatal;
  s.raise_after = raise_after;
  s.clear_after = clear_after;
  return s;
}

TEST(Watchdog, ThresholdLevels) {
  Watchdog dog(spec(1.0, 10.0));
  EXPECT_EQ(dog.observe(0, 0.5), HealthState::kOk);
  EXPECT_EQ(dog.observe(1, 1.0), HealthState::kWarn);   // >= warn trips
  EXPECT_EQ(dog.observe(2, 10.0), HealthState::kFatal);
  EXPECT_EQ(dog.samples(), 3u);
  EXPECT_DOUBLE_EQ(dog.last_value(), 10.0);
}

TEST(Watchdog, BelowDirection) {
  WatchdogSpec s = spec(1.0, 0.1);
  s.above = false;  // trip when value <= threshold
  Watchdog dog(s);
  EXPECT_EQ(dog.observe(0, 5.0), HealthState::kOk);
  EXPECT_EQ(dog.observe(1, 0.5), HealthState::kWarn);
  EXPECT_EQ(dog.observe(2, 0.05), HealthState::kFatal);
}

TEST(Watchdog, RaiseAfterSuppressesSingleSpike) {
  Watchdog dog(spec(1.0, 10.0, /*raise_after=*/3));
  EXPECT_EQ(dog.observe(0, 2.0), HealthState::kOk);  // 1 of 3
  EXPECT_EQ(dog.observe(1, 0.0), HealthState::kOk);  // streak broken
  EXPECT_EQ(dog.observe(2, 2.0), HealthState::kOk);
  EXPECT_EQ(dog.observe(3, 2.0), HealthState::kOk);
  EXPECT_EQ(dog.observe(4, 2.0), HealthState::kWarn);  // 3 consecutive
  EXPECT_EQ(dog.transitions(), 1u);
  EXPECT_EQ(dog.last_transition_step(), 4);
}

TEST(Watchdog, HysteresisDoesNotFlapAtThreshold) {
  // A value alternating exactly across the warn threshold must produce at
  // most the one raise transition: clear_after = 3 means isolated healthy
  // samples never clear the warn state.
  Watchdog dog(spec(1.0, 100.0, /*raise_after=*/1, /*clear_after=*/3));
  for (int i = 0; i < 50; ++i) dog.observe(i, i % 2 == 0 ? 1.0 : 0.99);
  EXPECT_EQ(dog.state(), HealthState::kWarn);
  EXPECT_EQ(dog.transitions(), 1u);
}

TEST(Watchdog, ClearAfterConsecutiveHealthySamples) {
  Watchdog dog(spec(1.0, 100.0, 1, 3));
  dog.observe(0, 5.0);
  EXPECT_EQ(dog.state(), HealthState::kWarn);
  dog.observe(1, 0.1);
  dog.observe(2, 0.1);
  EXPECT_EQ(dog.state(), HealthState::kWarn);  // 2 of 3
  dog.observe(3, 0.1);
  EXPECT_EQ(dog.state(), HealthState::kOk);
  EXPECT_EQ(dog.transitions(), 2u);
  EXPECT_EQ(dog.last_transition_step(), 3);
}

TEST(Watchdog, MixedStreakPromotesConservatively) {
  // With raise_after = 2, a [fatal, warn] streak raises only to warn — the
  // promoted level is the floor of the streak, never beyond what the signal
  // sustained.
  Watchdog dog(spec(1.0, 10.0, /*raise_after=*/2));
  EXPECT_EQ(dog.observe(0, 50.0), HealthState::kOk);
  EXPECT_EQ(dog.observe(1, 2.0), HealthState::kWarn);
  // Escalation warn -> fatal needs its own sustained streak.
  EXPECT_EQ(dog.observe(2, 50.0), HealthState::kWarn);
  EXPECT_EQ(dog.observe(3, 50.0), HealthState::kFatal);
}

TEST(HealthMonitor, StandardSetRegistersSixWatchdogs) {
  HealthMonitor mon(HealthConfig{}, nullptr);
  EXPECT_EQ(mon.size(), 6u);
  EXPECT_NE(mon.find("health.energy_drift"), nullptr);
  EXPECT_NE(mon.find("health.temperature_ratio"), nullptr);
  EXPECT_NE(mon.find("health.max_force"), nullptr);
  EXPECT_NE(mon.find("health.neighbor_occupancy"), nullptr);
  EXPECT_NE(mon.find("health.step_imbalance"), nullptr);
  EXPECT_NE(mon.find("health.extrapolation_rate"), nullptr);
  EXPECT_EQ(mon.find("health.nope"), nullptr);
  EXPECT_EQ(mon.worst(), HealthState::kOk);
}

TEST(HealthMonitor, NaNSignalsAreSkipped) {
  HealthMonitor mon(HealthConfig{}, nullptr);
  StepSignals s;  // everything NaN
  s.step = 1;
  EXPECT_EQ(mon.observe_step(s), HealthState::kOk);
  for (const auto& e : mon.report().entries) EXPECT_EQ(e.transitions, 0u);
  // A skipped watchdog keeps zero samples.
  EXPECT_EQ(mon.find("health.max_force")->samples(), 0u);
}

TEST(HealthMonitor, DriftBaselineIsWindowedMean) {
  HealthConfig cfg;
  cfg.drift_window = 4;
  HealthMonitor mon(cfg, nullptr);
  // First sample: baseline = itself, drift 0.
  EXPECT_DOUBLE_EQ(mon.drift_value(-100.0), 0.0);
  EXPECT_DOUBLE_EQ(mon.drift_value(-100.0), 0.0);
  mon.drift_value(-100.0);
  mon.drift_value(-100.0);
  // Window full at mean -100; a 1% jump reads as 1e-2 relative drift.
  EXPECT_NEAR(mon.drift_value(-99.0), 0.01, 1e-12);
  EXPECT_NEAR(mon.drift_value(-101.0), 0.01, 1e-12);
}

TEST(HealthMonitor, EnergyJumpTripsDriftWatchdog) {
  HealthConfig cfg;
  cfg.drift_window = 4;
  HealthMonitor mon(cfg, nullptr);
  StepSignals s;
  for (int i = 0; i < 4; ++i) {
    s.step = i;
    s.total_energy = -100.0;
    EXPECT_EQ(mon.observe_step(s), HealthState::kOk);
  }
  s.step = 4;
  s.total_energy = -80.0;  // 20% drift >> drift_fatal = 1e-1
  EXPECT_EQ(mon.observe_step(s), HealthState::kFatal);
  EXPECT_EQ(mon.find("health.energy_drift")->state(), HealthState::kFatal);
}

TEST(HealthMonitor, StateBitsPackTwoBitsPerWatchdog) {
  HealthConfig cfg;
  HealthMonitor mon(cfg, nullptr);
  EXPECT_EQ(mon.state_bits(), 0u);
  StepSignals s;
  s.step = 0;
  s.max_force = cfg.force_fatal * 10.0;  // watchdog index 2
  mon.observe_step(s);
  EXPECT_EQ(mon.state_bits(), 2u << (2 * 2));
  EXPECT_EQ(mon.worst(), HealthState::kFatal);
}

TEST(HealthMonitor, ExtrapolationRateIsDifferenced) {
  HealthConfig cfg;
  cfg.extrapolation_warn = 1e-3;
  cfg.extrapolation_fatal = 1e-1;
  HealthMonitor mon(cfg, nullptr);
  StepSignals s;
  s.n_atoms = 1000.0;
  s.step = 0;
  s.extrapolations = 0.0;
  EXPECT_EQ(mon.observe_step(s), HealthState::kOk);
  // 10 new extrapolations over 10 steps at 1000 atoms = 1e-3 / atom / step.
  s.step = 10;
  s.extrapolations = 10.0;
  EXPECT_EQ(mon.observe_step(s), HealthState::kWarn);
  // No new extrapolations: rate falls back to zero.
  s.step = 20;
  EXPECT_EQ(mon.find("health.extrapolation_rate")->observe(20, 0.0), HealthState::kWarn);
}

TEST(HealthMonitor, TransitionsEmitEventsIntoSink) {
  MetricsRegistry reg;
  HealthConfig cfg;
  HealthMonitor mon(cfg, &reg);
  StepSignals s;
  s.step = 0;
  s.max_force = 1.0;
  mon.observe_step(s);
  EXPECT_EQ(reg.event_count(), 0u);  // healthy: no emission
  s.step = 1;
  s.max_force = cfg.force_warn * 2.0;
  mon.observe_step(s);
  EXPECT_EQ(reg.event_count(), 1u);  // ok -> warn
  s.step = 2;
  mon.observe_step(s);
  EXPECT_EQ(reg.event_count(), 1u);  // staying warn is silent
}

TEST(HealthMonitor, ReportCarriesThresholdsAndWorst) {
  HealthConfig cfg;
  HealthMonitor mon(cfg, nullptr);
  StepSignals s;
  s.step = 7;
  s.neighbor_occupancy = 0.9;  // warn at 0.85, fatal at 1.0
  mon.observe_step(s);
  const auto rep = mon.report();
  EXPECT_EQ(rep.step, 7);
  EXPECT_EQ(rep.worst(), HealthState::kWarn);
  const auto* e = rep.find("health.neighbor_occupancy");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, HealthState::kWarn);
  EXPECT_DOUBLE_EQ(e->value, 0.9);
  EXPECT_DOUBLE_EQ(e->warn, cfg.occupancy_warn);
  EXPECT_DOUBLE_EQ(e->fatal, cfg.occupancy_fatal);
}

TEST(HealthMonitor, PublishGaugesWritesPerWatchdogState) {
  MetricsRegistry reg;
  HealthConfig cfg;
  HealthMonitor mon(cfg, nullptr);
  StepSignals s;
  s.step = 0;
  s.max_force = cfg.force_fatal * 2.0;
  mon.observe_step(s);
  mon.publish_gauges(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("health.worst_state").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("health.max_force.state").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("health.max_force").value(), cfg.force_fatal * 2.0);
}

TEST(HealthMonitor, EncodeDecodeRoundTrip) {
  for (HealthState st : {HealthState::kOk, HealthState::kWarn, HealthState::kFatal})
    EXPECT_EQ(HealthMonitor::decode(HealthMonitor::encode(st)), st);
  EXPECT_EQ(HealthMonitor::decode(99), HealthState::kFatal);  // clamps up
}

// The acceptance demo from ISSUE.md: an NVE LJ run with a deliberately
// broken (10x) time step must trip the energy-drift watchdog within the
// baseline window, while the same run at a sane dt stays clean.
TEST(HealthIntegration, BrokenDtTripsDriftWatchdogWithinWindow) {
  auto run_with_dt = [](double dt) {
    auto cfg = dp::md::make_fcc(3, 3, 3, 3.7, 63.5, 0.0, 14);
    dp::md::LennardJones lj(0.4, 2.34, 4.5);
    dp::md::SimulationConfig sc;
    sc.skin = 1.0;
    sc.dt = dt;
    sc.steps = 60;
    sc.temperature = 300.0;
    sc.thermo_every = 2;  // drift is observed at sample cadence
    dp::obs::HealthConfig hcfg;
    hcfg.drift_window = 8;
    dp::par::DistributedOptions opts;
    opts.health = &hcfg;
    const auto result = dp::par::run_distributed_md(
        1, cfg, [&] { return std::make_unique<dp::md::LennardJones>(lj); }, sc, opts);
    return result.health.find("health.energy_drift")->state;
  };
  EXPECT_EQ(run_with_dt(0.002), HealthState::kOk);
  EXPECT_NE(run_with_dt(0.02), HealthState::kOk);
}

TEST(HealthIntegration, DistributedRunReportsFleetHealth) {
  auto sys = dp::md::make_fcc(6, 6, 6, 3.7, 63.5, 0.08, 51);
  dp::md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = 10;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.rebuild_every = 5;
  sc.thermo_every = 5;
  dp::obs::HealthConfig hcfg;
  hcfg.target_temperature = sc.temperature;
  // In-process ranks oversubscribe the test host's cores, so wall-clock
  // imbalance is scheduler noise here — park those thresholds out of reach
  // and test the plumbing, not the machine.
  hcfg.imbalance_warn = 1e3;
  hcfg.imbalance_fatal = 1e6;
  dp::par::DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.health = &hcfg;
  const auto result = dp::par::run_distributed_md(
      4, sys, [] { return std::make_unique<dp::md::LennardJones>(0.4, 2.34, 4.5); }, sc,
      opts);
  // The report carries the standard set, evaluated on globally reduced
  // signals; a healthy LJ lattice run must not trip anything.
  EXPECT_EQ(result.health.entries.size(), 6u);
  EXPECT_EQ(result.health.worst(), HealthState::kOk);
  EXPECT_EQ(result.worst_health, 0);
  const auto* imb = result.health.find("health.step_imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_GE(imb->value, 1.0);  // max/mean is bounded below by 1
}

/// Forwards to Lennard-Jones; a slow instance first sleeps 50 ms per
/// compute, standing in for a rank with far more force work than the rest.
class SlowForceField final : public dp::md::ForceField {
 public:
  explicit SlowForceField(bool slow) : slow_(slow) {}
  dp::md::ForceResult compute(const dp::md::Box& box, dp::md::Atoms& atoms,
                              const dp::md::NeighborList& nlist, bool periodic) override {
    if (slow_) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return lj_.compute(box, atoms, nlist, periodic);
  }
  double cutoff() const override { return lj_.cutoff(); }

 private:
  dp::md::LennardJones lj_{0.4, 2.34, 4.5};
  bool slow_;
};

TEST(HealthIntegration, StepImbalanceSeesOneSlowRank) {
  // One of four ranks spends 50 ms more per force evaluation. Step time
  // cannot show it (every rank waits for the slow one in the halo
  // exchange), but the per-rank force seconds can: max/mean is ideally 4.
  auto sys = dp::md::make_fcc(6, 6, 6, 3.7, 63.5, 0.08, 51);
  dp::md::SimulationConfig sc;
  sc.dt = 0.001;
  sc.steps = 4;
  sc.temperature = 200.0;
  sc.skin = 1.0;
  sc.thermo_every = 2;
  dp::obs::HealthConfig hcfg;
  hcfg.target_temperature = sc.temperature;
  hcfg.imbalance_warn = 1e3;  // parked: the value is under test, not the state
  hcfg.imbalance_fatal = 1e6;
  dp::par::DistributedOptions opts;
  opts.grid = {2, 2, 1};
  opts.health = &hcfg;
  std::atomic<int> built{0};
  const auto result = dp::par::run_distributed_md(
      4, sys, [&] { return std::make_unique<SlowForceField>(built.fetch_add(1) == 0); }, sc,
      opts);
  EXPECT_EQ(built.load(), 4);
  const auto* imb = result.health.find("health.step_imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_GE(imb->value, 2.0);
}

}  // namespace
