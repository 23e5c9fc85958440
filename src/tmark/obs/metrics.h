#ifndef TMARK_OBS_METRICS_H_
#define TMARK_OBS_METRICS_H_

// Process-global metrics registry: named counters, gauges, fixed-bucket
// histograms (p50/p95/p99), and bounded series (for per-iteration traces
// such as the T-Mark residual rho_t). Everything is thread-safe.
//
// The registry is compiled in everywhere but DISABLED by default: the
// gated helpers at the bottom (IncrCounter, SetGauge, ObserveHistogram,
// AppendSeries) cost one relaxed atomic load + branch per call site while
// disabled. Enable with Registry::Instance().set_enabled(true) — the bench
// JSON mode (TMARK_BENCH_JSON) and the CLI --metrics-json flag do this.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tmark/common/status.h"

namespace tmark::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramBucket {
  double upper_bound = 0.0;  ///< Inclusive; +inf for the overflow bucket.
  std::uint64_t count = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<HistogramBucket> buckets;
};

/// Fixed-bucket histogram. Percentiles are estimated by linear
/// interpolation inside the bucket containing the requested rank, clamped
/// to the observed [min, max] range (so the overflow bucket reports max).
class Histogram {
 public:
  /// `bounds` must be strictly ascending; an implicit +inf overflow bucket
  /// is appended. Defaults to DefaultTimingBucketsMs().
  explicit Histogram(std::vector<double> bounds = DefaultTimingBucketsMs());

  void Observe(double v);

  /// Percentile estimate for q in [0, 1]; 0 when empty.
  double Percentile(double q) const;

  HistogramSnapshot Snapshot(std::string_view name) const;

  /// 1µs .. 10s in a 1-2-5 ladder — suits the ms-denominated timers.
  static std::vector<double> DefaultTimingBucketsMs();

 private:
  double PercentileLocked(double q) const;

  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (overflow).
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

struct SeriesSnapshot {
  std::string name;
  std::uint64_t total_count = 0;  ///< Appends seen, including dropped ones.
  std::vector<double> values;     ///< First kMaxPoints appends.
};

/// Append-only bounded sequence of doubles, e.g. one residual per fixed-
/// point iteration. Keeps the first kMaxPoints values and counts the rest.
class Series {
 public:
  static constexpr std::size_t kMaxPoints = 4096;

  void Append(double v);
  SeriesSnapshot Snapshot(std::string_view name) const;

 private:
  mutable std::mutex mu_;
  std::uint64_t total_count_ = 0;
  std::vector<double> values_;
};

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Point-in-time copy of every metric, sorted by name (deterministic JSON).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<SeriesSnapshot> series;
};

/// The process-global registry. Metric objects live until Reset(); the
/// references returned by the Get* accessors are stable across lookups.
class Registry {
 public:
  static Registry& Instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// `bounds` applies only when the histogram is created by this call.
  Histogram& GetHistogram(std::string_view name,
                          std::vector<double> bounds = {});
  Series& GetSeries(std::string_view name);

  /// Drops every metric (tests). Invalidates previously returned refs.
  void Reset();

  MetricsSnapshot Snapshot() const;

 private:
  Registry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series_;
};

inline bool MetricsEnabled() { return Registry::Instance().enabled(); }

// Enabled-gated instrumentation helpers: a branch when the registry is off.

inline void IncrCounter(std::string_view name, std::int64_t delta = 1) {
  Registry& registry = Registry::Instance();
  if (!registry.enabled()) return;
  registry.GetCounter(name).Increment(delta);
}

inline void SetGauge(std::string_view name, double value) {
  Registry& registry = Registry::Instance();
  if (!registry.enabled()) return;
  registry.GetGauge(name).Set(value);
}

inline void ObserveHistogram(std::string_view name, double value) {
  Registry& registry = Registry::Instance();
  if (!registry.enabled()) return;
  registry.GetHistogram(name).Observe(value);
}

inline void AppendSeries(std::string_view name, double value) {
  Registry& registry = Registry::Instance();
  if (!registry.enabled()) return;
  registry.GetSeries(name).Append(value);
}

/// Counts a failed status of an I/O boundary in the `io.errors` and
/// `io.errors.<code>` counters; returns it unchanged.
inline Status CountIoError(Status status) {
  if (status.ok()) return status;
  IncrCounter("io.errors");
  IncrCounter(std::string("io.errors.") +
              std::string(StatusCodeMetricSuffix(status.code())));
  return status;
}

}  // namespace tmark::obs

#endif  // TMARK_OBS_METRICS_H_
