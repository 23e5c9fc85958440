#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "tmark/core/model_io.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/obs/metrics.h"
#include "tmark/la/panel.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/query_engine.h"
#include "tmark/tensor/transition_tensors.h"
#include "workloads.h"

namespace tmbench {
namespace {

using tmark::la::DenseMatrix;

/// Median duration of `body` over at least `min_reps` calls, repeating
/// until ~`budget_ms` elapsed (at most 1000 calls). Each call is a span.
template <typename Body>
double MedianMs(const std::string& span, int min_reps, double budget_ms,
                Body body) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 1000 &&
         (static_cast<int>(samples.size()) < min_reps ||
          MsSince(start) < budget_ms)) {
    ScopedSpan s(span);
    body();
    samples.push_back(s.Close());
  }
  return Median(samples);
}

/// A width-column panel whose column c is column (c mod cols) of `source`.
DenseMatrix WidenColumns(const DenseMatrix& source, std::size_t width) {
  DenseMatrix panel(source.rows(), width);
  for (std::size_t r = 0; r < source.rows(); ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      panel.At(r, c) = source.At(r, c % source.cols());
    }
  }
  return panel;
}

void ReportKernel(const std::string& kernel, const std::string& suffix,
                  double ms, double entries, double width, double bytes,
                  Report* report) {
  const std::string base = "kernel." + kernel;
  report->Layer(base + ".us" + suffix, ms * 1e3, "us");
  report->Layer(base + ".ns_per_entry_col" + suffix,
                ms * 1e6 / (entries * width), "ns");
  report->Layer(base + ".gb_per_s" + suffix, bytes / (ms * 1e6),
                "GB/s-computed");
}

}  // namespace

tmark::core::TMarkConfig FitConfig(bool ica_update) {
  tmark::core::TMarkConfig config;
  config.ica_update = ica_update;
  return config;
}

double HeldOutAccuracy(const tmark::hin::Hin& hin, const DenseMatrix& conf,
                       const std::vector<std::size_t>& train,
                       const std::vector<std::size_t>& exclude) {
  std::vector<bool> skip(hin.num_nodes(), false);
  for (const std::size_t node : train) skip[node] = true;
  for (const std::size_t node : exclude) skip[node] = true;
  std::size_t total = 0;
  std::size_t hits = 0;
  for (std::size_t node = 0; node < hin.num_nodes(); ++node) {
    if (skip[node] || hin.labels(node).empty()) continue;
    std::size_t best = 0;
    for (std::size_t c = 1; c < conf.cols(); ++c) {
      if (conf.At(node, c) > conf.At(node, best)) best = c;
    }
    ++total;
    hits += best == hin.PrimaryLabel(node) ? 1 : 0;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

std::uint64_t Digest(const DenseMatrix& m) {
  std::uint64_t h = 1469598103934665603ULL;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(m.data().data());
  for (std::size_t i = 0; i < m.data().size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h ^ (m.rows() * 31 + m.cols());
}

bool ColumnsStochastic(const DenseMatrix& m, double tol) {
  for (std::size_t c = 0; c < m.cols(); ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (!(m.At(r, c) >= 0.0)) return false;
      sum += m.At(r, c);
    }
    if (std::abs(sum - 1.0) > tol) return false;
  }
  return true;
}

std::vector<tmark::serve::ScoredEntry> TopKEntries(
    const tmark::la::Vector& values, std::size_t k) {
  std::vector<std::size_t> idx(values.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(), [&](std::size_t a, std::size_t b) {
                      if (values[a] != values[b]) return values[a] > values[b];
                      return a < b;
                    });
  std::vector<tmark::serve::ScoredEntry> entries(k);
  for (std::size_t i = 0; i < k; ++i) entries[i] = {idx[i], values[idx[i]]};
  return entries;
}

bool SameEntries(const std::vector<tmark::serve::ScoredEntry>& a,
                 const std::vector<tmark::serve::ScoredEntry>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.index == y.index && x.score == y.score;
                    });
}

FitRun FitAt(std::size_t threads, const tmark::hin::Hin& hin,
             const tmark::core::PreparedOperators& ops,
             const std::vector<std::size_t>& train,
             const tmark::core::TMarkConfig& config) {
  const std::size_t before = tmark::parallel::NumThreads();
  tmark::parallel::SetNumThreads(threads);
  FitRun run{0.0, tmark::core::TMarkClassifier(config)};
  {
    ScopedSpan span("core.fit");
    run.classifier.Fit(hin, ops, train);
    run.ms = span.Close();
  }
  tmark::parallel::SetNumThreads(before);
  return run;
}

void ReportLoad(const std::string& path, double load_ms, Report* report) {
  report->Layer("hin_io.load_ms", load_ms, "ms");
  report->Layer("hin_io.load_mb_per_s",
                static_cast<double>(FileBytes(path)) / 1e6 / (load_ms / 1000.0),
                "MB/s");
}

void ProbeBuild(const tmark::hin::Hin& hin,
                const tmark::core::PreparedOperators& ops, Report* report) {
  const tmark::tensor::SparseTensor3 adjacency = hin.ToAdjacencyTensor();
  report->Layer("tensor.build_ms",
                MedianMs("tensor.build", 1, 0.0,
                         [&] {
                           const auto t = tmark::tensor::TransitionTensors::Build(
                               adjacency);
                           (void)t;
                         }),
                "ms");
  report->Layer("similarity.build_ms",
                MedianMs("similarity.build", 1, 0.0,
                         [&] {
                           const auto w = tmark::hin::FeatureSimilarity::Build(
                               hin.features(), ops.kernel());
                           (void)w;
                         }),
                "ms");
  report->Layer("tensor.merged_bytes",
                static_cast<double>(
                    ops.tensors().o_stored().MergedViewStorageBytes() +
                    ops.tensors().r_stored().MergedViewStorageBytes()),
                "bytes");
  std::uint64_t fingerprint = 0;
  report->Layer("core.fingerprint_ms",
                MedianMs("core.fingerprint", 3, 0.0,
                         [&] {
                           fingerprint = tmark::core::FingerprintOperators(
                               hin, ops.kernel());
                         }),
                "ms");
  report->Check(fingerprint == ops.fingerprint(),
                "FingerprintOperators equals the built operators' fingerprint");
}

void ReportFit(double fit_ms_n, double fit_ms_1,
               const tmark::core::TMarkClassifier& fitted,
               std::size_t stored_entries, Report* report) {
  std::size_t max_iterations = 0;
  std::size_t class_iterations = 0;
  for (const tmark::core::ConvergenceTrace& trace : fitted.Traces()) {
    max_iterations = std::max(max_iterations, trace.residuals.size());
    class_iterations += trace.residuals.size();
  }
  report->Layer("core.fit_ms", fit_ms_n, "ms");
  report->Layer("core.fit_iterations", static_cast<double>(max_iterations),
                "count");
  // The paper's O(qTD) unit: fit time per stored entry, per class, per
  // iteration that class ran.
  report->Layer("core.fit_ns_per_entry_class_iter",
                fit_ms_n * 1e6 /
                    (static_cast<double>(stored_entries) *
                     static_cast<double>(std::max<std::size_t>(class_iterations, 1))),
                "ns");
  report->Layer("core.fit_ms_t1", fit_ms_1, "ms");
  report->Layer("parallel.fit_speedup", fit_ms_1 / fit_ms_n, "x");
}

void ProbeKernels(const tmark::hin::Hin& hin,
                  const tmark::core::PreparedOperators& ops,
                  const tmark::core::TMarkClassifier& fitted,
                  const tmark::core::TMarkConfig& config, std::size_t width,
                  const std::string& suffix, Report* report) {
  const tmark::tensor::TransitionTensors& tensors = ops.tensors();
  const double n = static_cast<double>(ops.num_nodes());
  const double m = static_cast<double>(ops.num_relations());
  const double d = static_cast<double>(hin.feature_dim());
  const double w = static_cast<double>(width);
  const double d_o = static_cast<double>(tensors.o_stored().NumNonZeros());
  const double d_r = static_cast<double>(tensors.r_stored().NumNonZeros());
  const double nnz_f = static_cast<double>(hin.features().NumNonZeros());
  // Computed bytes: each stored entry's value and index once, each panel
  // read or written once; cache reuse and gathers are not modelled.
  const double entry_bytes = sizeof(double) + sizeof(std::uint32_t);
  const double col_bytes = sizeof(double) * w;

  const DenseMatrix x = WidenColumns(fitted.Confidences(), width);
  const DenseMatrix z = WidenColumns(fitted.LinkImportance(), width);
  DenseMatrix y(ops.num_nodes(), width);
  DenseMatrix zr(ops.num_relations(), width);
  tmark::la::PanelWorkspace ws;
  tmark::la::Vector sums;
  const double budget = 150.0;

  ReportKernel("apply_o", suffix,
               MedianMs("kernel.apply_o", 3, budget,
                        [&] { tensors.ApplyOPanel(x, z, width, &y, &ws); }),
               d_o, w, d_o * entry_bytes + (2 * n + m) * col_bytes, report);
  ReportKernel("apply_r", suffix,
               MedianMs("kernel.apply_r", 3, budget,
                        [&] {
                          tensors.ApplyRPanel(x, x, width, &zr, &ws, nullptr,
                                              nullptr, &sums);
                        }),
               d_r, w, d_r * entry_bytes + (2 * n + m) * col_bytes, report);
  ReportKernel("feature_walk", suffix,
               MedianMs("kernel.feature_walk", 3, budget,
                        [&] {
                          ops.similarity().ApplyPanel(x, width, &y, &ws);
                        }),
               nnz_f, w, 2 * nnz_f * entry_bytes + 2 * (n + d) * col_bytes,
               report);

  // The fused epilogue rewrites its panels, so every call starts from
  // fresh copies made outside the timed region.
  const double alpha = config.alpha;
  const double beta = config.beta();
  std::vector<double> samples;
  tmark::la::Vector z_col_sums, x_sums, z_sums, rho_x, rho_z;
  tmark::la::LeadingColumnSums(z, width, &z_col_sums);
  const Clock::time_point start = Clock::now();
  while (samples.size() < 1000 && (samples.size() < 3 || MsSince(start) < budget)) {
    DenseMatrix x_next = x;
    DenseMatrix z_next = z;
    z_sums = z_col_sums;
    ScopedSpan span("kernel.epilogue");
    tmark::la::FusedCombineColumns(1.0 - alpha - beta, beta, y, alpha, x,
                                   width, &x_next, &x_sums);
    tmark::la::FusedNormalizeDistanceColumns(&x_sums, x, width, &x_next,
                                             &rho_x);
    tmark::la::FusedNormalizeDistanceColumns(&z_sums, z, width, &z_next,
                                             &rho_z);
    samples.push_back(span.Close());
  }
  ReportKernel("epilogue", suffix, Median(samples), n, w,
               (7 * n + 3 * m) * col_bytes, report);
}

void ProbeDispatch(std::size_t threads, Report* report) {
  tmark::parallel::ThreadPool& pool = tmark::parallel::GlobalPool();
  constexpr int kCalls = 200;
  const double batch_ms = MedianMs("parallel.dispatch", 15, 0.0, [&] {
    for (int i = 0; i < kCalls; ++i) pool.Run(threads, [](std::size_t) {});
  });
  report->Layer("parallel.dispatch_us", batch_ms * 1e3 / kCalls, "us");
}

void ProbeModelIo(const tmark::core::TMarkClassifier& fitted,
                  const std::string& path, Report* report) {
  double save_ms = 0.0;
  {
    ScopedSpan span("model_io.save");
    const tmark::Status status = tmark::core::SaveTMarkModelToFile(fitted, path);
    save_ms = span.Close();
    report->Check(status.ok(), "model save: " + status.ToString());
  }
  ScopedSpan span("model_io.load");
  tmark::Result<tmark::core::TMarkClassifier> loaded =
      tmark::core::LoadTMarkModelFromFile(path);
  const double load_ms = span.Close();
  report->Check(loaded.ok() && Digest(loaded.value().Confidences()) ==
                                   Digest(fitted.Confidences()),
                "reloaded model has bit-identical confidences");
  std::remove(path.c_str());
  report->Layer("model_io.save_ms", save_ms, "ms");
  report->Layer("model_io.load_ms", load_ms, "ms");
}

void ProbeQueryEngine(const tmark::core::PreparedOperators& ops,
                      const tmark::core::TMarkConfig& config,
                      const std::vector<std::size_t>& seeds, std::size_t width,
                      int repeats, Report* report) {
  tmark::serve::PanelQueryEngine engine(tmark::serve::MakeQueryOptions(config));
  std::vector<tmark::serve::SeedQueryResult> results;
  std::vector<double> iterations;
  std::size_t unconverged = 0;
  const auto run = [&](const std::vector<std::size_t>& batch) {
    ScopedSpan span("query_engine.run");
    engine.Run(ops, batch, &results);
    const double ms = span.Close();
    for (const tmark::serve::SeedQueryResult& r : results) {
      iterations.push_back(static_cast<double>(r.iterations));
      unconverged += r.converged ? 0 : 1;
    }
    return ms;
  };
  std::vector<double> w1, wn;
  for (int rep = 0; rep < repeats; ++rep) {
    w1.push_back(run({seeds[rep % seeds.size()]}));
    std::vector<std::size_t> batch;
    for (std::size_t i = 0; i < width; ++i) {
      batch.push_back(seeds[(rep * width + i) % seeds.size()]);
    }
    wn.push_back(run(batch));
  }
  report->Layer("query_engine.run_ms_w1", Median(w1), "ms");
  report->Layer("query_engine.run_ms_wN", Median(wn), "ms");
  report->Layer("query_engine.iterations_mean", Mean(iterations), "count");
  report->Layer("query_engine.unconverged_frac",
                static_cast<double>(unconverged) /
                    static_cast<double>(iterations.size()),
                "fraction");
}

void ProbeProtocol(Report* report) {
  constexpr int kCalls = 20000;
  const std::string payload = "topk 12345 10";
  tmark::serve::Response response;
  response.kind = tmark::serve::RequestKind::kTopK;
  response.node = 12345;
  response.generation = 7;
  response.fingerprint = 0x0123456789abcdefULL;
  for (std::size_t i = 0; i < 10; ++i) {
    response.entries.push_back({i * 7919 % 100000, 1.0 / (3.0 + i)});
  }
  std::size_t sink = 0;
  const double parse_ms = MedianMs("protocol.parse", 5, 0.0, [&] {
    for (int i = 0; i < kCalls; ++i) {
      sink += tmark::serve::ParseRequest(payload).value().node;
    }
  });
  const double format_ms = MedianMs("protocol.format", 5, 0.0, [&] {
    for (int i = 0; i < kCalls; ++i) {
      sink += tmark::serve::FormatResponse(response).size();
    }
  });
  report->Check(sink > 0, "protocol round trip");
  report->Layer("protocol.parse_us", parse_ms * 1e3 / kCalls, "us");
  report->Layer("protocol.format_us", format_ms * 1e3 / kCalls, "us");
}

double ProbeUpdatePath(const tmark::hin::Hin& hin,
                       const tmark::core::TMarkConfig& config,
                       const std::vector<std::size_t>& train,
                       const std::string& dir, Report* report) {
  std::vector<std::string> files = ReadLines(dir + "/deltas.txt");
  files.resize(std::min(files.size(), kCycleDeltas));
  report->Check(!files.empty(), "update probe: deltas listed");
  tmark::hin::Hin replica_hin = hin;
  auto ops = std::make_shared<tmark::core::PreparedOperators>(
      tmark::core::PreparedOperators::Build(replica_hin, config.similarity));
  tmark::core::TMarkClassifier replica(config);
  replica.SetPreparedOperators(ops);
  replica.Fit(replica_hin, train);
  const tmark::obs::Counter& rows =
      tmark::obs::Registry::Instance().GetCounter("update.rows_touched");
  std::vector<double> load_ms, apply_ms, patch_ms, update_ms, iterations,
      rows_touched;
  for (const std::string& file : files) {
    ScopedSpan load("hin_delta.load");
    tmark::Result<tmark::hin::HinDelta> delta =
        tmark::hin::LoadHinDeltaFromFile(dir + "/" + file);
    load_ms.push_back(load.Close());
    report->Check(delta.ok(), "update probe: load " + file);
    if (!delta.ok()) return 0.0;
    {
      tmark::hin::Hin copy = replica_hin;
      ScopedSpan span("hin.apply_delta");
      report->Check(copy.ApplyDelta(delta.value()).ok(), "replica apply");
      apply_ms.push_back(span.Close());
      tmark::core::PreparedOperators patched = *replica.prepared_operators();
      const double rows_before = static_cast<double>(rows.value());
      ScopedSpan patch("core.ops_patch");
      patched.ApplyDelta(copy, delta.value());
      patch_ms.push_back(patch.Close());
      rows_touched.push_back(static_cast<double>(rows.value()) - rows_before);
    }
    ScopedSpan span("core.update");
    const tmark::Status status = replica.Update(&replica_hin, delta.value(), train);
    update_ms.push_back(span.Close());
    report->Check(status.ok(), "replica update: " + status.ToString());
    std::size_t max_iterations = 0;
    for (const tmark::core::ConvergenceTrace& t : replica.Traces()) {
      max_iterations = std::max(max_iterations, t.residuals.size());
    }
    iterations.push_back(static_cast<double>(max_iterations));
  }
  report->Layer("hin_delta.load_ms", Median(load_ms), "ms");
  report->Layer("hin.apply_delta_ms", Median(apply_ms), "ms");
  report->Layer("core.ops_patch_ms", Median(patch_ms), "ms");
  report->Layer("core.update_ms", Median(update_ms), "ms");
  report->Layer("core.update_iterations", Median(iterations), "count");
  report->Layer("update.rows_touched", Mean(rows_touched), "count");
  return Median(update_ms);
}

}  // namespace tmbench
