#include "obs/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace dp::obs {

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk: return "ok";
    case HealthState::kWarn: return "warn";
    case HealthState::kFatal: return "fatal";
  }
  return "ok";
}

Watchdog::Watchdog(WatchdogSpec spec) : spec_(std::move(spec)) {
  if (spec_.raise_after < 1) spec_.raise_after = 1;
  if (spec_.clear_after < 1) spec_.clear_after = 1;
}

HealthState Watchdog::level_of(double value) const {
  if (std::isnan(value)) return HealthState::kOk;
  if (spec_.above) {
    if (value >= spec_.fatal) return HealthState::kFatal;
    if (value >= spec_.warn) return HealthState::kWarn;
  } else {
    if (value <= spec_.fatal) return HealthState::kFatal;
    if (value <= spec_.warn) return HealthState::kWarn;
  }
  return HealthState::kOk;
}

HealthState Watchdog::observe(std::int64_t step, double value) {
  if (std::isnan(value)) return state_;
  ++samples_;
  last_value_ = value;
  const HealthState level = level_of(value);
  if (level > state_) {
    // Track the *least* severe level seen during the run: a streak of
    // mixed warn/fatal samples only promotes to what every sample agreed
    // on; a fatal sample inside the streak still raises to fatal once the
    // run is long enough because fatal >= warn keeps the run alive.
    worse_min_ = (worse_run_ == 0) ? level : std::min(worse_min_, level);
    ++worse_run_;
    better_run_ = 0;
    if (worse_run_ >= spec_.raise_after) {
      state_ = worse_min_;
      ++transitions_;
      last_transition_step_ = step;
      worse_run_ = 0;
    }
  } else if (level < state_) {
    better_max_ = (better_run_ == 0) ? level : std::max(better_max_, level);
    ++better_run_;
    worse_run_ = 0;
    if (better_run_ >= spec_.clear_after) {
      state_ = better_max_;
      ++transitions_;
      last_transition_step_ = step;
      better_run_ = 0;
    }
  } else {
    // A sample matching the current state resets both streaks — the
    // hysteresis requires *consecutive* evidence.
    worse_run_ = 0;
    better_run_ = 0;
  }
  return state_;
}

HealthState HealthReport::worst() const {
  HealthState w = HealthState::kOk;
  for (const auto& e : entries) w = std::max(w, e.state);
  return w;
}

const HealthReport::Entry* HealthReport::find(std::string_view name) const {
  for (const auto& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

namespace {
constexpr const char* kDrift = "health.energy_drift";
constexpr const char* kTemp = "health.temperature_ratio";
constexpr const char* kForce = "health.max_force";
constexpr const char* kOccupancy = "health.neighbor_occupancy";
constexpr const char* kImbalance = "health.step_imbalance";
constexpr const char* kExtrap = "health.extrapolation_rate";
}  // namespace

HealthMonitor::HealthMonitor(const HealthConfig& cfg, MetricsRegistry* sink)
    : sink_(sink), cfg_(cfg), standard_(true) {
  add({kDrift, cfg.drift_warn, cfg.drift_fatal, true, cfg.raise_after,
       cfg.clear_after, "|dE|/|E0|",
       "check timestep/thermostat; NVE energy is leaving its baseline"});
  add({kTemp, cfg.temp_warn_factor, cfg.temp_fatal_factor, true,
       cfg.raise_after, cfg.clear_after, "T/T_target",
       "system is heating; inspect forces or reduce dt"});
  add({kForce, cfg.force_warn, cfg.force_fatal, true, cfg.raise_after,
       cfg.clear_after, "eV/A",
       "atoms too close or model extrapolating; check initial structure"});
  add({kOccupancy, cfg.occupancy_warn, cfg.occupancy_fatal, true,
       cfg.raise_after, cfg.clear_after, "longest/reserved",
       "raise neighbor slot reservation before lists overflow"});
  add({kImbalance, cfg.imbalance_warn, cfg.imbalance_fatal, true,
       cfg.raise_after, cfg.clear_after, "max/mean",
       "force work is uneven across ranks; compare load_imbalance (atom counts)"});
  add({kExtrap, cfg.extrapolation_warn, cfg.extrapolation_fatal, true,
       cfg.raise_after, cfg.clear_after, "extrapolations/atom/step",
       "configurations outside training data; widen the tabulated domain"});
}

Watchdog& HealthMonitor::add(WatchdogSpec spec) {
  dogs_.push_back(std::make_unique<Watchdog>(std::move(spec)));
  return *dogs_.back();
}

Watchdog* HealthMonitor::find(std::string_view name) {
  for (auto& d : dogs_)
    if (d->spec().name == name) return d.get();
  return nullptr;
}

const Watchdog* HealthMonitor::find(std::string_view name) const {
  for (const auto& d : dogs_)
    if (d->spec().name == name) return d.get();
  return nullptr;
}

HealthState HealthMonitor::observe(std::string_view name, std::int64_t step,
                                   double value) {
  Watchdog* d = find(name);
  if (!d) return HealthState::kOk;
  const HealthState before = d->state();
  const HealthState after = d->observe(step, value);
  if (after != before && sink_) {
    // Label = "<watchdog> -> <state>": grep-able in the JSONL stream; the
    // numeric state rides along for machine consumers.
    sink_->record_event(d->spec().name,
                        std::string(d->spec().name) + " -> " + to_string(after),
                        {{"step", static_cast<double>(step)},
                         {"value", value},
                         {"warn", d->spec().warn},
                         {"fatal", d->spec().fatal},
                         {"state", static_cast<double>(encode(after))}});
  }
  return after;
}

double HealthMonitor::drift_value(double total_energy) {
  if (baseline_n_ < cfg_.drift_window) {
    ++baseline_n_;
    baseline_sum_ += total_energy;
  }
  const double baseline = baseline_sum_ / static_cast<double>(baseline_n_);
  const double denom = std::max(std::abs(baseline), 1e-300);
  return std::abs(total_energy - baseline) / denom;
}

HealthState HealthMonitor::observe_step(const StepSignals& s) {
  last_step_ = s.step;
  if (standard_) {
    if (!std::isnan(s.total_energy))
      observe(kDrift, s.step, drift_value(s.total_energy));
    if (!std::isnan(s.temperature) && cfg_.target_temperature > 0.0)
      observe(kTemp, s.step, s.temperature / cfg_.target_temperature);
    if (!std::isnan(s.max_force)) observe(kForce, s.step, s.max_force);
    if (!std::isnan(s.neighbor_occupancy))
      observe(kOccupancy, s.step, s.neighbor_occupancy);
    if (!std::isnan(s.step_imbalance))
      observe(kImbalance, s.step, s.step_imbalance);
    if (!std::isnan(s.extrapolations)) {
      if (!std::isnan(extrap_last_) && s.step > extrap_last_step_ &&
          s.n_atoms > 0.0) {
        const double steps =
            static_cast<double>(s.step - extrap_last_step_);
        const double rate =
            (s.extrapolations - extrap_last_) / (s.n_atoms * steps);
        observe(kExtrap, s.step, std::max(rate, 0.0));
      }
      extrap_last_ = s.extrapolations;
      extrap_last_step_ = s.step;
    }
  }
  return worst();
}

HealthState HealthMonitor::worst() const {
  HealthState w = HealthState::kOk;
  for (const auto& d : dogs_) w = std::max(w, d->state());
  return w;
}

std::uint32_t HealthMonitor::state_bits() const {
  std::uint32_t bits = 0;
  const std::size_t n = std::min<std::size_t>(dogs_.size(), 16);
  for (std::size_t i = 0; i < n; ++i)
    bits |= static_cast<std::uint32_t>(encode(dogs_[i]->state())) << (2 * i);
  return bits;
}

HealthReport HealthMonitor::report() const {
  HealthReport r;
  r.step = last_step_;
  r.entries.reserve(dogs_.size());
  for (const auto& d : dogs_) {
    r.entries.push_back({d->spec().name, d->state(), d->last_value(),
                         d->spec().warn, d->spec().fatal, d->spec().units,
                         d->transitions(), d->last_transition_step()});
  }
  return r;
}

void HealthMonitor::publish_gauges(MetricsRegistry& reg) const {
  for (const auto& d : dogs_) {
    reg.gauge(d->spec().name).set(d->last_value());
    reg.gauge(d->spec().name + ".state")
        .set(static_cast<double>(encode(d->state())));
  }
  reg.gauge("health.worst_state").set(static_cast<double>(encode(worst())));
}

HealthState HealthMonitor::decode(int v) {
  if (v >= 2) return HealthState::kFatal;
  if (v == 1) return HealthState::kWarn;
  return HealthState::kOk;
}

}  // namespace dp::obs
