// End-to-end cost of T-Mark, validating the O(q T D) analysis of Sec. 4.5
// and the ablation of the design choices called out in DESIGN.md:
//   * runtime scales linearly in nodes (D ~ n for fixed density),
//   * linearly in the number of classes q,
//   * the ICA update (T-Mark) costs little over TensorRrCc,
//   * one width-q panel solve is at least as fast per column-iteration as
//     the per-class schedule of q width-1 solves (docs/PERFORMANCE.md;
//     gated by scripts/check_fit_engine.py).
//
// Besides the google-benchmark timings, main() always runs the fit-engine
// comparison on the DBLP synthetic preset and records it as the
// "fit-engine comparison" table of the TMARK_BENCH_JSON dump — run with
// --benchmark_filter=^$ to get just that section.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench/common.h"

#include "tmark/common/string_util.h"
#include "tmark/core/prepared_operators.h"
#include "tmark/core/tensor_rrcc.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/presets.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/eval/experiment.h"

namespace {

using namespace tmark;

hin::Hin MakeHin(std::size_t n, std::size_t q, std::uint64_t seed) {
  datasets::SyntheticHinConfig config;
  config.num_nodes = n;
  for (std::size_t c = 0; c < q; ++c) {
    config.class_names.push_back('C' + std::to_string(c));
  }
  config.vocab_size = 40 * q;
  config.words_per_node = 15.0;
  config.feature_signal = 0.75;
  config.seed = seed;
  for (int k = 0; k < 4; ++k) {
    datasets::RelationSpec spec;
    spec.name = 'r' + std::to_string(k);
    spec.same_class_prob = 0.8;
    spec.edges_per_member = 3.0;
    config.relations.push_back(spec);
  }
  return datasets::GenerateSyntheticHin(config);
}

std::vector<std::size_t> ThirdLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

void BM_TMarkFit_Nodes(benchmark::State& state) {
  const hin::Hin hin =
      MakeHin(static_cast<std::size_t>(state.range(0)), 3, 51);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TMarkClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hin.NumLinks()));
}
BENCHMARK(BM_TMarkFit_Nodes)->Arg(250)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_TMarkFit_Classes(benchmark::State& state) {
  const hin::Hin hin =
      MakeHin(600, static_cast<std::size_t>(state.range(0)), 53);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TMarkClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
}
BENCHMARK(BM_TMarkFit_Classes)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TensorRrCcFit(benchmark::State& state) {
  // Ablation: T-Mark without the ICA update (the ICDM'17 predecessor).
  const hin::Hin hin =
      MakeHin(static_cast<std::size_t>(state.range(0)), 3, 51);
  const auto labeled = ThirdLabeled(hin);
  for (auto _ : state) {
    core::TensorRrCcClassifier clf;
    clf.Fit(hin, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
  }
}
BENCHMARK(BM_TensorRrCcFit)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_StratifiedSplit(benchmark::State& state) {
  const hin::Hin hin = MakeHin(2000, 4, 55);
  Rng rng(57);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::StratifiedSplit(hin, 0.3, &rng));
  }
}
BENCHMARK(BM_StratifiedSplit);

// The two fit schedules of the panel solver on prebuilt operators:
// "width1" runs the q classes as q width-1 solves (the per-class
// schedule), "width_q" as one width-q solve — TMarkClassifier::Fit itself.
// Both produce bit-identical traces, so they do the same number of
// column-iterations; returns it.
std::size_t FitSchedule(const hin::Hin& hin,
                        const core::PreparedOperators& ops,
                        const std::vector<std::size_t>& labeled,
                        bool per_class) {
  const core::TMarkConfig config;
  std::vector<core::ConvergenceTrace> traces(hin.num_classes());
  if (per_class) {
    la::DenseMatrix x(hin.num_nodes(), hin.num_classes());
    la::DenseMatrix z(hin.num_relations(), hin.num_classes());
    for (std::size_t c = 0; c < hin.num_classes(); ++c) {
      core::SolveTMarkClasses(config, hin, labeled, ops, {c}, nullptr,
                              nullptr, &x, &z, &traces);
    }
    benchmark::DoNotOptimize(x);
  } else {
    core::TMarkClassifier clf(config);
    clf.Fit(hin, ops, labeled);
    benchmark::DoNotOptimize(clf.Confidences());
    traces = clf.Traces();
  }
  std::size_t iterations = 0;
  for (const core::ConvergenceTrace& trace : traces) {
    iterations += trace.residuals.size();
  }
  return iterations;
}

const char* ScheduleName(bool per_class) {
  return per_class ? "width1" : "width_q";
}

// Per-schedule fit timing on the DBLP synthetic preset with prebuilt
// operators, so the iteration loop (not the O/R/W build) is what is timed.
void BM_TMarkFit_Engine(benchmark::State& state) {
  const auto hin_result = datasets::MakePreset("dblp", {});
  const hin::Hin& hin = *hin_result;
  const auto labeled = ThirdLabeled(hin);
  const bool per_class = state.range(0) == 0;
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitSchedule(hin, ops, labeled, per_class));
  }
  state.SetLabel(ScheduleName(per_class));
}
BENCHMARK(BM_TMarkFit_Engine)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The schedule comparison section: one warm-up then TMARK_BENCH_REPEATS
/// (>= 3) timed fits per schedule on the DBLP synthetic preset, recorded as
/// the "fit-engine comparison" table of the TMARK_BENCH_JSON dump. Both
/// schedules produce bit-identical traces, so the total column-iteration
/// count is the same and ms_per_iter is directly comparable.
void RunFitEngineComparison() {
  datasets::PresetOptions options;
  const hin::Hin hin = *datasets::MakePreset("dblp", options);
  const auto labeled = ThirdLabeled(hin);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);

  std::vector<std::string> headers = {"engine",    "threads",
                                      "fit_ms_min", "fit_ms_median",
                                      "iterations", "ms_per_iter"};
  eval::TablePrinter table(headers);
  std::vector<std::vector<std::string>> rows;
  for (const bool per_class : {true, false}) {
    // Warm-up, also yields the column-iteration count.
    const std::size_t iterations = FitSchedule(hin, ops, labeled, per_class);
    const int repeats = std::max(3, bench::BenchTimer::Repeats());
    std::vector<double> runs;
    runs.reserve(static_cast<std::size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
      obs::Stopwatch watch;
      FitSchedule(hin, ops, labeled, per_class);
      runs.push_back(watch.ElapsedMs());
    }
    std::sort(runs.begin(), runs.end());
    const std::size_t mid = runs.size() / 2;
    const double median = runs.size() % 2 == 1
                              ? runs[mid]
                              : 0.5 * (runs[mid - 1] + runs[mid]);
    std::vector<std::string> row = {
        ScheduleName(per_class),
        std::to_string(parallel::NumThreads()),
        FormatDouble(runs.front(), 3),
        FormatDouble(median, 3),
        std::to_string(iterations),
        FormatDouble(runs.front() / static_cast<double>(iterations), 5)};
    rows.push_back(row);
    table.AddRow(std::move(row));
  }
  std::cout << "fit-engine comparison (dblp synthetic preset, " << hin.num_nodes()
            << " nodes, prebuilt operators, q width-1 solves vs one width-q "
               "solve, min over "
            << std::max(3, bench::BenchTimer::Repeats()) << " runs)\n";
  table.Print(std::cout);
  if (bench::BenchObsSession* session = bench::BenchObsSession::active()) {
    session->RecordTable(
        {"fit-engine comparison", std::move(headers), std::move(rows)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  tmark::bench::BenchObsSession obs_session(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RunFitEngineComparison();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
