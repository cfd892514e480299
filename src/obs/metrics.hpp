// Step-level metrics: counters, gauges, fixed-bucket histograms and a
// JSON(-lines) sink.
//
// The registry is the numeric side of the observability layer (the trace
// collector in trace.hpp is the timeline side). Hot paths update metrics
// through lock-free atomics; registration (name -> object) takes a mutex
// but call sites that run per MD step cache the returned reference, which
// stays valid for the life of the process: `clear()` resets values and
// drops recorded events but never destroys a registered metric.
//
// Sinks:
//   write_jsonl  — one JSON object per line (machine-readable trajectory
//                  files such as out.metrics.jsonl; validated line-by-line)
//   write_json   — a single JSON document (the BENCH_*.json figures)
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace dp::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins floating point metric.
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of a histogram, with quantile estimation.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;               ///< upper bucket bounds, ascending
  std::vector<std::uint64_t> bucket_counts; ///< bounds.size() + 1 (overflow last)

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket that crosses the target rank; exact at bucket boundaries.
  double quantile(double q) const;
};

/// Fixed-bucket histogram. observe() is wait-free (per-bucket atomic adds);
/// the bucket layout is immutable after construction.
class Histogram {
 public:
  /// `bounds` are the ascending upper edges; an implicit overflow bucket
  /// catches everything above the last edge. Empty = default_time_bounds().
  explicit Histogram(std::vector<double> bounds = {});

  void observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;
  double quantile(double q) const { return snapshot().quantile(q); }
  void reset();

  /// 1-2-5 ladder from 1 microsecond to 100 seconds — suits wall-clock
  /// durations in seconds, the dominant histogram use in this codebase.
  static std::vector<double> default_time_bounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// A timestamped structured record (e.g. one rank's halo summary): numeric
/// fields plus an optional free-form label.
struct MetricEvent {
  std::string name;
  std::string label;
  std::vector<std::pair<std::string, double>> fields;
};

class MetricsRegistry {
 public:
  /// Process-wide instance used by the built-in instrumentation points.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. References remain valid until destruction of
  /// the registry (clear() resets values but keeps the objects).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation; empty = default time bounds.
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  void record_event(std::string name, std::vector<std::pair<std::string, double>> fields);
  void record_event(std::string name, std::string label,
                    std::vector<std::pair<std::string, double>> fields);

  /// One JSON object per line: metrics first, then events in record order.
  void write_jsonl(std::ostream& os) const;
  bool write_jsonl_file(const std::string& path) const;
  /// write_jsonl_file + fsync: used on fatal paths (and on every periodic
  /// rewrite while a flight recorder is armed) so an abort immediately
  /// after still leaves the full tail on disk.
  bool write_jsonl_file_sync(const std::string& path) const;
  /// Single JSON document: {"metrics": [...], "events": [...]}.
  void write_json(std::ostream& os) const;
  bool write_json_file(const std::string& path) const;

  std::size_t event_count() const;

  /// Resets every metric value and drops recorded events. Registered
  /// metric objects (and references to them) survive.
  void clear();

 private:
  // Serialization helpers called with mu_ already held by the public
  // write_jsonl/write_json entry points.
  void write_metric_objects(std::ostream& os, const char* sep, bool& first) const
      DP_REQUIRES(mu_);
  void write_event_objects(std::ostream& os, const char* sep, bool& first) const
      DP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ DP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ DP_GUARDED_BY(mu_);
  std::vector<MetricEvent> events_ DP_GUARDED_BY(mu_);
};

}  // namespace dp::obs
