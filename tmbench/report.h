#ifndef TMBENCH_REPORT_H_
#define TMBENCH_REPORT_H_

// Shared plumbing of the tmbench binary: timing, order statistics, the
// in-memory span log of the traced run, and the result report that ends
// every run with one JSON line.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tmbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Milliseconds since `from`.
inline double MsSince(Clock::time_point from) { return Ms(from, Clock::now()); }

/// Quantile q in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set size (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMb();

/// Size of a file in bytes; 0 if it cannot be read.
std::uint64_t FileBytes(const std::string& path);

/// One span of the traced run: a layer call timed from the benchmark side.
/// Spans of one request share `request` (0 when not tied to a request).
struct Span {
  std::string name;
  double start_us = 0.0;  ///< Since the span log's epoch.
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t request = 0;
};

/// Process-wide span log. Disabled (the default) it records nothing, so the
/// end-to-end runs pay one relaxed load per timed call. Spans are kept in
/// memory and written once, at the end of the run.
class SpanLog {
 public:
  static SpanLog& Instance();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  Clock::time_point epoch() const { return epoch_; }

  void Record(Span span);
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  std::size_t size() const;

  /// Writes every span as a JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  SpanLog() : epoch_(Clock::now()) {}

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one layer call. Nested ScopedSpans on one thread become
/// parent and child; `request` ties spans on different threads together.
/// Close() ends the span early and returns its duration in ms; the duration
/// is measured whether or not the span log is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::uint64_t request = 0);
  ~ScopedSpan() { Close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Close();
  double elapsed_ms() const { return MsSince(start_); }

 private:
  std::string name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
  double duration_ms_ = -1.0;
};

/// Attempted / succeeded / failed / refused counts of one phase.
struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;  ///< RESOURCE_EXHAUSTED rejections.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Workloads add end-to-end metrics (the
/// BENCHMARK.json `end_to_end` set), the workload's own named
/// metrics, per-layer metrics, phase counts and correctness checks; Print
/// writes the human-readable table and then the one-line JSON result.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Named(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  Phase& AddPhase(const std::string& name);

  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return checks_failed_ == 0; }

  /// Prints the table, then the result line with the end-to-end metrics
  /// (traced = false) or the per-layer metrics (traced = true).
  void Print(bool traced) const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> named_;
  std::vector<Metric> layers_;
  std::deque<Phase> phases_;  // Stable references for AddPhase.
  std::size_t checks_passed_ = 0;
  std::size_t checks_failed_ = 0;
};

}  // namespace tmbench

#endif  // TMBENCH_REPORT_H_
