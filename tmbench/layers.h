#ifndef TMBENCH_LAYERS_H_
#define TMBENCH_LAYERS_H_

// Per-layer probes of the traced run. Each replays one layer through its
// public API on the workload's own network and operators, inside a span,
// and reports the layer's metrics (names as in BENCHMARK.json `per_layer`).
// Every traced run reports every per-layer metric: what a workload's own
// traffic does not exercise, these probes replay on its network.

#include <cstddef>
#include <string>
#include <vector>

#include "report.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/hin/hin.h"

namespace tmbench {

/// One fit of `train` on prepared operators at `threads` pool lanes; the
/// pool width is restored afterwards.
struct FitRun {
  double ms = 0.0;
  tmark::core::TMarkClassifier classifier;
};
FitRun FitAt(std::size_t threads, const tmark::hin::Hin& hin,
             const tmark::core::PreparedOperators& ops,
             const std::vector<std::size_t>& train,
             const tmark::core::TMarkConfig& config);

/// hin_io.load_ms and hin_io.load_mb_per_s for a load of `path`.
void ReportLoad(const std::string& path, double load_ms, Report* report);

/// tensor.build_ms, similarity.build_ms, tensor.merged_bytes and
/// core.fingerprint_ms on `hin`.
void ProbeBuild(const tmark::hin::Hin& hin,
                const tmark::core::PreparedOperators& ops, Report* report);

/// core.fit_ms / fit_iterations / fit_ns_per_entry_class_iter from a fit at
/// N threads, and core.fit_ms_t1 / parallel.fit_speedup against one at 1.
void ReportFit(double fit_ms_n, double fit_ms_1,
               const tmark::core::TMarkClassifier& fitted,
               std::size_t stored_entries, Report* report);

/// kernel.<k>.{us,ns_per_entry_col,gb_per_s}<suffix> for k in apply_o,
/// apply_r, feature_walk and epilogue at panel width `width`, on panels
/// built from the fitted posteriors and link importance.
void ProbeKernels(const tmark::hin::Hin& hin,
                  const tmark::core::PreparedOperators& ops,
                  const tmark::core::TMarkClassifier& fitted,
                  const tmark::core::TMarkConfig& config, std::size_t width,
                  const std::string& suffix, Report* report);

/// parallel.dispatch_us: one empty pool batch over all lanes.
void ProbeDispatch(std::size_t threads, Report* report);

/// model_io.save_ms and model_io.load_ms; checks the reload is
/// bit-identical.
void ProbeModelIo(const tmark::core::TMarkClassifier& fitted,
                  const std::string& path, Report* report);

/// query_engine.run_ms_w1 / run_ms_wN / iterations_mean / unconverged_frac
/// from PanelQueryEngine::Run replays on `seeds`.
void ProbeQueryEngine(const tmark::core::PreparedOperators& ops,
                      const tmark::core::TMarkConfig& config,
                      const std::vector<std::size_t>& seeds, std::size_t width,
                      int repeats, Report* report);

/// protocol.parse_us and protocol.format_us per request / response.
void ProbeProtocol(Report* report);

/// The update path on a standalone replica of `hin` fitted on `train`: the
/// first cycle of deltas named in <dir>/deltas.txt, each through
/// LoadHinDeltaFromFile, Hin::ApplyDelta, PreparedOperators::ApplyDelta
/// and TMarkClassifier::Update, timed one by one. Reports
/// hin_delta.load_ms, hin.apply_delta_ms, core.ops_patch_ms,
/// core.update_ms, core.update_iterations and update.rows_touched, and
/// returns the median core.update_ms.
double ProbeUpdatePath(const tmark::hin::Hin& hin,
                       const tmark::core::TMarkConfig& config,
                       const std::vector<std::size_t>& train,
                       const std::string& dir, Report* report);

/// Deltas of one update cycle (label waves, edge mix and its undo).
inline constexpr std::size_t kCycleDeltas = 6;

}  // namespace tmbench

#endif  // TMBENCH_LAYERS_H_
