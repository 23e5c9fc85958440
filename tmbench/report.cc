#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "tmark/obs/mem.h"

namespace tmbench {
namespace {

thread_local std::uint64_t current_span = 0;

/// Shortest round-trip decimal form of `v` (all its digits, no rounding).
std::string Num(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  const tmark::Result<std::uint64_t> bytes = tmark::obs::ReadPeakRssBytes();
  return bytes.ok() ? static_cast<double>(bytes.value()) / (1024.0 * 1024.0)
                    : 0.0;
}

std::uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<std::uint64_t>(in.tellg());
}

SpanLog& SpanLog::Instance() {
  static SpanLog log;
  return log;
}

void SpanLog::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":" << JsonString(s.name) << ",\"start_us\":"
        << Num(s.start_us) << ",\"end_us\":" << Num(s.end_us)
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.flush();
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(std::string name, std::uint64_t request)
    : name_(std::move(name)), request_(request) {
  SpanLog& log = SpanLog::Instance();
  if (log.enabled()) {
    id_ = log.NextId();
    parent_ = current_span;
    current_span = id_;
  }
  start_ = Clock::now();
}

double ScopedSpan::Close() {
  if (duration_ms_ >= 0.0) return duration_ms_;
  const Clock::time_point end = Clock::now();
  duration_ms_ = Ms(start_, end);
  if (id_ != 0) {
    current_span = parent_;
    SpanLog& log = SpanLog::Instance();
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - log.epoch())
          .count();
    };
    log.Record(Span{std::move(name_), us(start_), us(end), id_, parent_,
                    request_});
  }
  return duration_ms_;
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::Named(const std::string& name, double value,
                   const std::string& unit) {
  named_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

Phase& Report::AddPhase(const std::string& name) {
  phases_.push_back(Phase{name});
  return phases_.back();
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed_;
  } else {
    ++checks_failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Print(bool traced) const {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::printf("%-14s %10s %10s %8s %8s\n", "phase", "attempted", "succeeded",
              "failed", "refused");
  for (const Phase& p : phases_) {
    std::printf("%-14s %10llu %10llu %8llu %8llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed),
                static_cast<unsigned long long>(p.refused));
    attempted += p.attempted;
    failed += p.failed + p.refused;
  }
  const auto table = [](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  table("end-to-end:", e2e_);
  table("named:", named_);
  table("per-layer:", layers_);
  std::printf("checks: %zu passed, %zu failed\n", checks_passed_,
              checks_failed_);

  bool finite = true;
  std::ostringstream metrics;
  const std::vector<Metric>& chosen = traced ? layers_ : e2e_;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const Metric& m = chosen[i];
    finite = finite && std::isfinite(m.value);
    metrics << (i ? ", " : "") << JsonString(m.name) << ": {\"value\": "
            << (std::isfinite(m.value) ? Num(m.value) : "0")
            << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  if (!finite) std::fprintf(stderr, "CHECK FAILED: a metric is not finite\n");
  if (attempted == 0) std::fprintf(stderr, "CHECK FAILED: nothing attempted\n");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct() && finite && attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
      static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
}

}  // namespace tmbench
