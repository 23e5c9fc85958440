#include "calibrate.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "report.h"

namespace tmbench {
namespace {

struct Probe {
  Probe() : table(std::size_t{1} << 20) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    for (int i = 0; i < 20000; ++i) text += std::to_string(i * 0.37) + " ";
  }

  double Run() const {
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t sum = 0;
    for (int i = 0; i < 200000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += table[(x >> 20) % table.size()];
    }
    const char* p = text.c_str();
    char* end = nullptr;
    double parsed = 0.0;
    for (int i = 0; i < 20000; ++i) {
      parsed += std::strtod(p, &end);
      p = end;
    }
    double acc = 1.0;
    for (int i = 0; i < 2000000; ++i) acc = acc * 0.999999 + 1e-7;
    sink = sum + static_cast<std::uint64_t>(parsed + acc);
    return MsSince(start);
  }

  std::vector<std::uint32_t> table;  // 4 MiB: past L2, inside L3.
  std::string text;
  mutable volatile std::uint64_t sink = 0;
};

}  // namespace

void HostSpeed::Sample(int repeats) {
  static const Probe probe;
  double best = probe.Run();
  for (int i = 1; i < repeats; ++i) best = std::min(best, probe.Run());
  samples_.push_back(best);
}

double HostSpeed::median_ms() const {
  return samples_.empty() ? kReferenceMs : Median(samples_);
}

}  // namespace tmbench
