// Run-health watchdogs: streaming invariant monitors evaluated every MD
// step, the *online* counterpart of the post-hoc metrics/trace layer.
//
// A 10-billion-atom campaign lives or dies on noticing degradation early:
// load imbalance, neighbor-slot overflow, model extrapolation and
// integration drift all corrupt a multi-hour run silently long before
// anything crashes (paper Sec 6.1). Each Watchdog turns one scalar signal
// into a three-level state (ok / warn / fatal) with hysteresis, so a driver
// can act on a stable answer instead of a flapping threshold comparison.
//
// Thread model: a HealthMonitor belongs to one rank (thread) and is never
// shared; distributed runs evaluate one monitor per rank on globally
// reduced signals and allreduce-max the encoded states so every rank
// agrees on the worst (see parallel/distributed_md.cpp). Emission into the
// (thread-safe) MetricsRegistry sink happens only on state transitions, so
// the steady healthy state costs a handful of branches per step.
//
// Capability note: single-owner by design means there is nothing here for
// DP_GUARDED_BY to name — the absence of dp::Mutex in this header is the
// annotation (docs/STATIC_ANALYSIS.md, capability section).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dp::obs {

class MetricsRegistry;

enum class HealthState : int { kOk = 0, kWarn = 1, kFatal = 2 };

const char* to_string(HealthState s);

struct WatchdogSpec {
  std::string name;         ///< metric-style name, e.g. "health.energy_drift"
  double warn = std::numeric_limits<double>::infinity();
  double fatal = std::numeric_limits<double>::infinity();
  bool above = true;        ///< trip when value >= threshold (false: <=)
  int raise_after = 1;      ///< consecutive breaching samples before raising
  int clear_after = 3;      ///< consecutive healthy samples before clearing
  std::string units;        ///< for reports and the docs catalog
  std::string action;       ///< suggested operator action
};

/// One streaming invariant monitor. observe() is O(1); the state machine
/// requires `raise_after` consecutive samples beyond a threshold to raise
/// and `clear_after` consecutive samples back in bounds to clear, so a
/// signal hovering exactly at the threshold cannot flap warn/ok every step.
class Watchdog {
 public:
  explicit Watchdog(WatchdogSpec spec);

  HealthState observe(std::int64_t step, double value);

  HealthState state() const { return state_; }
  double last_value() const { return last_value_; }
  std::uint64_t samples() const { return samples_; }
  std::uint64_t transitions() const { return transitions_; }
  std::int64_t last_transition_step() const { return last_transition_step_; }
  const WatchdogSpec& spec() const { return spec_; }

 private:
  HealthState level_of(double value) const;

  WatchdogSpec spec_;
  HealthState state_ = HealthState::kOk;
  double last_value_ = 0.0;
  std::uint64_t samples_ = 0;
  std::uint64_t transitions_ = 0;
  std::int64_t last_transition_step_ = -1;
  // Consecutive-sample runs toward a worse / better state (hysteresis).
  int worse_run_ = 0;
  int better_run_ = 0;
  HealthState worse_min_ = HealthState::kFatal;
  HealthState better_max_ = HealthState::kOk;
};

/// Point-in-time snapshot, consumable in-process and serializable through
/// the JSONL sink.
struct HealthReport {
  struct Entry {
    std::string name;
    HealthState state = HealthState::kOk;
    double value = 0.0;
    double warn = 0.0;
    double fatal = 0.0;
    std::string units;
    std::uint64_t transitions = 0;
    std::int64_t last_transition_step = -1;
  };
  std::int64_t step = -1;
  std::vector<Entry> entries;

  HealthState worst() const;
  const Entry* find(std::string_view name) const;
};

/// Raw per-step signals a driver feeds the monitor. NaN means "not
/// measured this step" — that watchdog is simply skipped, so pair
/// potentials (no extrapolation) and non-sample steps share one code path.
struct StepSignals {
  std::int64_t step = 0;
  double n_atoms = 0.0;           ///< normalizes the extrapolation rate
  double total_energy = std::numeric_limits<double>::quiet_NaN();
  double temperature = std::numeric_limits<double>::quiet_NaN();
  double max_force = std::numeric_limits<double>::quiet_NaN();
  /// Longest neighbor list / slot reservation (N_m); >= 1 means overflow.
  double neighbor_occupancy = std::numeric_limits<double>::quiet_NaN();
  /// max/mean over ranks of the force-evaluation seconds since the last
  /// sample; 1.0 is perfect balance.
  double step_imbalance = std::numeric_limits<double>::quiet_NaN();
  /// Cumulative embedding-table extrapolation count (monitor differences it).
  double extrapolations = std::numeric_limits<double>::quiet_NaN();
};

/// Thresholds for the standard watchdog set (docs/OBSERVABILITY.md carries
/// the full catalog: signal, units, suggested action).
struct HealthConfig {
  int drift_window = 16;          ///< samples forming the energy baseline
  double drift_warn = 1e-3;       ///< |E - baseline| / |baseline| (NVE)
  double drift_fatal = 1e-1;
  double target_temperature = 330.0;  ///< K; watchdog observes T / target
  double temp_warn_factor = 2.0;
  double temp_fatal_factor = 4.0;
  double force_warn = 1e2;        ///< max |F_i| [eV/A]
  double force_fatal = 1e4;
  double occupancy_warn = 0.85;   ///< longest list / reservation
  double occupancy_fatal = 1.0;
  double imbalance_warn = 1.5;    ///< max/mean per-rank force seconds
  double imbalance_fatal = 4.0;
  double extrapolation_warn = 1e-4;   ///< extrapolations / atom / step
  double extrapolation_fatal = 1e-2;
  int raise_after = 1;
  int clear_after = 3;
};

class HealthMonitor {
 public:
  /// Empty monitor; add() your own watchdogs.
  HealthMonitor() = default;
  /// Standard watchdog set. `sink` receives a "health" event per state
  /// transition (nullptr = no emission; distributed ranks other than 0 use
  /// this so the JSONL stream carries each transition once).
  explicit HealthMonitor(const HealthConfig& cfg, MetricsRegistry* sink);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// References stay valid for the life of the monitor.
  Watchdog& add(WatchdogSpec spec);
  Watchdog* find(std::string_view name);
  const Watchdog* find(std::string_view name) const;

  /// Feeds one named watchdog; emits a "health" event on transition.
  /// Unknown names are ignored (returns kOk).
  HealthState observe(std::string_view name, std::int64_t step, double value);

  /// Maps one step's raw signals onto the standard watchdog set (drift
  /// baseline and extrapolation differencing live here). Returns worst().
  HealthState observe_step(const StepSignals& s);

  HealthState worst() const;
  /// Two bits per watchdog in registration order — the flight recorder's
  /// per-step health word.
  std::uint32_t state_bits() const;
  HealthReport report() const;
  /// `health.<name>` value/state gauges plus `health.worst_state`.
  void publish_gauges(MetricsRegistry& reg) const;

  std::size_t size() const { return dogs_.size(); }

  static int encode(HealthState s) { return static_cast<int>(s); }
  static HealthState decode(int v);

  /// Relative-drift helper exposed for tests: |e - baseline| / |baseline|
  /// against the windowed baseline (mean of the first `drift_window`
  /// samples; before the window fills, the running mean of prior samples).
  double drift_value(double total_energy);

 private:
  std::vector<std::unique_ptr<Watchdog>> dogs_;
  MetricsRegistry* sink_ = nullptr;
  HealthConfig cfg_;
  bool standard_ = false;
  std::int64_t last_step_ = -1;
  // Energy-drift baseline (windowed mean).
  int baseline_n_ = 0;
  double baseline_sum_ = 0.0;
  // Extrapolation-rate differencing.
  double extrap_last_ = std::numeric_limits<double>::quiet_NaN();
  std::int64_t extrap_last_step_ = 0;
};

}  // namespace dp::obs
