#ifndef TMBENCH_CALIBRATE_H_
#define TMBENCH_CALIBRATE_H_

// Host-speed probe. The machines this benchmark runs on are shared: the
// same binary's wall times drift by up to ~60% over stretches of seconds
// to minutes as other tenants load the host. The probe is a fixed piece of
// work that does not touch the program under test (random gathers over a
// 4 MiB table, decimal parsing, a multiply-add stream); timing it between
// a workload's operations tracks the host's speed during the run, so wall
// times can be reported at a fixed reference speed as well as raw.

#include <vector>

namespace tmbench {

class HostSpeed {
 public:
  /// Probe time, in ms, at the reference speed the normalized metrics are
  /// expressed in.
  static constexpr double kReferenceMs = 10.0;

  /// Times the probe `repeats` times and keeps the fastest (the least
  /// disturbed by preemption within the probe itself).
  void Sample(int repeats = 3);

  /// Median of the samples so far (kReferenceMs before any sample).
  double median_ms() const;

  /// Multiplies a wall time measured during the run into one at the
  /// reference speed.
  double factor() const { return kReferenceMs / median_ms(); }

 private:
  std::vector<double> samples_;
};

}  // namespace tmbench

#endif  // TMBENCH_CALIBRATE_H_
