// update_100k: writes beside reads. A warm daemon on synthetic:100000 takes
// HinDelta batches back to back (closed loop): each is parsed from its file
// with LoadHinDeltaFromFile and submitted with BeginUpdate/WaitForUpdate,
// while an open-loop stream of classify lookups is served over the socket.
// hin_delta, Hin::ApplyDelta, PreparedOperators::ApplyDelta, the warm
// Update and the bundle swap do the work; the lookups show what the writes
// cost the reads. Rank walks are left out: each takes hundreds of ms here.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "layers.h"
#include "loadgen.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/metrics.h"
#include "workloads.h"

namespace tmbench {
namespace {

constexpr int kSetupRepeats = 3;

struct UpdateTimes {
  double total_ms = 0;
  bool traced = false;
};

}  // namespace

void RunUpdate(const RunOptions& options, Report* report) {
  const std::string hin_path = options.dir + "/net.hin";
  const std::string socket_path = options.dir + "/update.sock";
  const std::vector<std::size_t> train = ReadIds(options.dir + "/train.txt");
  const std::vector<SchedulePhase> schedule =
      ReadSchedule(options.dir + "/schedule.txt");
  const std::vector<std::string> delta_files =
      ReadLines(options.dir + "/deltas.txt");
  report->Check(schedule.size() == 2 && !delta_files.empty(), "inputs parsed");
  if (!report->correct()) return;
  const tmark::core::TMarkConfig config = FitConfig(/*ica_update=*/false);
  tmark::serve::DaemonOptions daemon_options;
  daemon_options.config = config;
  daemon_options.query = tmark::serve::MakeQueryOptions(config);

  HostSpeed host;
  host.Sample();
  Serving serving;
  std::vector<double> setup_s, load_ms;
  if (!ColdStarts(kSetupRepeats, hin_path, train, daemon_options, socket_path,
                  report, &report->AddPhase("setup"), &serving, &setup_s,
                  &load_ms)) {
    return;
  }
  LoadGenerator generator;
  const tmark::Status connected = generator.Connect(socket_path, options.threads);
  report->Check(connected.ok(), "connect: " + connected.ToString());
  if (!connected.ok()) return;

  tmark::obs::Registry& registry = tmark::obs::Registry::Instance();
  if (options.traced) registry.Reset();
  const tmark::serve::BundleHolder& bundles = serving.daemon->bundles();
  std::map<std::uint64_t, std::uint64_t> published;  // generation -> fingerprint
  {
    const tmark::serve::BundleHolder::View view = bundles.Acquire();
    published[view.bundle->generation] = view.bundle->fingerprint;
  }

  std::vector<Outcome> lookups;
  std::thread reader([&] { lookups = generator.Run(schedule[0]); });
  Phase& updates = report->AddPhase("updates");
  std::vector<UpdateTimes> times;
  std::vector<std::string> applied;
  bool generations_advance = true;
  double peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  while (applied.size() < delta_files.size() &&
         MsSince(start) < options.seconds * 1000.0) {
    const std::string& file = delta_files[applied.size()];
    if (applied.size() % 6 == 0) host.Sample();
    // Setup and the first cycle of six deltas (one edge mix and its undo
    // included) set the memory high-water mark; later cycles only add
    // allocator reuse noise.
    if (applied.size() == 6) peak_rss_mb = PeakRssMb();
    UpdateTimes t;
    // The traced run traces every other cycle of six deltas; the gap
    // between traced and untraced medians is the tracing overhead.
    t.traced = options.traced && (applied.size() / 6) % 2 == 0;
    SpanLog::Instance().SetEnabled(t.traced);
    registry.set_enabled(t.traced);
    ++updates.attempted;
    ScopedSpan span("update");
    tmark::Result<tmark::hin::HinDelta> delta = [&] {
      ScopedSpan load("hin_delta.load");
      return tmark::hin::LoadHinDeltaFromFile(options.dir + "/" + file);
    }();
    tmark::Status status = delta.status();
    if (status.ok()) status = serving.daemon->BeginUpdate(std::move(delta.value()));
    if (status.ok()) status = serving.daemon->WaitForUpdate();
    t.total_ms = span.Close();
    if (!status.ok()) {
      ++updates.failed;
      report->Check(false, "update " + file + ": " + status.ToString());
      break;
    }
    ++updates.succeeded;
    const tmark::serve::BundleHolder::View view = bundles.Acquire();
    generations_advance = generations_advance &&
                          view.bundle->generation == published.rbegin()->first + 1;
    published[view.bundle->generation] = view.bundle->fingerprint;
    times.push_back(t);
    applied.push_back(file);
  }
  reader.join();
  SpanLog::Instance().SetEnabled(options.traced);
  registry.set_enabled(options.traced);
  Phase& lookup_phase = report->AddPhase("lookups");
  Account(lookups, &lookup_phase);
  if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();

  const tmark::serve::BundleHolder::View final_view = bundles.Acquire();
  const tmark::la::DenseMatrix final_confidences = final_view.bundle->confidences;
  const std::uint64_t final_fingerprint = final_view.bundle->fingerprint;
  std::size_t stale = 0;
  bool stamped = true;
  for (const Outcome& o : lookups) {
    if (o.kind != Outcome::Kind::kOk) continue;
    const auto it = published.find(o.response.generation);
    stamped = stamped && it != published.end() &&
              it->second == o.response.fingerprint;
    stale += o.response.stale ? 1 : 0;
  }
  report->Check(generations_advance, "every update published one generation");
  report->Check(stamped,
                "every lookup carries the fingerprint of its generation");
  const ServeSnapshot served = ServeSnapshot::Take();
  std::vector<double> rtt;
  for (const Outcome& o : lookups) rtt.push_back(o.rtt_ms);
  const double wire_p50 = Median(rtt) - served.request_p50;
  std::vector<std::size_t> walk_seeds;
  if (options.traced) {
    // Lookups bypass the batcher: the schedule's seed walks exercise it.
    registry.Reset();
    Account(generator.Run(schedule[1]), &report->AddPhase("walks"));
    const ServeSnapshot walked = ServeSnapshot::Take();
    ReportBatcher(walked, report);
    report->Layer("serve.batch_width_mean", walked.batch_width_mean, "count");
    walk_seeds = WalkSeeds(schedule[1]);
  }
  generator.Close();
  serving.server.reset();
  serving.daemon.reset();

  // Reference: the original network with the applied deltas, rebuilt from
  // scratch. The traced run first replays one cycle on a replica of the
  // original through the layer calls, to time them one by one.
  tmark::Result<tmark::hin::Hin> loaded = tmark::hin::LoadHinFromFile(hin_path);
  report->Check(loaded.ok(), "reference load");
  if (!loaded.ok()) return;
  tmark::hin::Hin hin = std::move(loaded.value());
  const double core_update_ms =
      options.traced ? ProbeUpdatePath(hin, config, train, options.dir, report)
                     : 0.0;
  std::vector<std::size_t> relabeled;
  for (const std::string& file : applied) {
    tmark::Result<tmark::hin::HinDelta> delta =
        tmark::hin::LoadHinDeltaFromFile(options.dir + "/" + file);
    report->Check(delta.ok(), "reference delta load " + file);
    if (!delta.ok()) return;
    for (const tmark::hin::LabelAdd& add : delta.value().label_adds()) {
      relabeled.push_back(add.node);
    }
    report->Check(hin.ApplyDelta(delta.value()).ok(), "reference apply");
  }
  // Held-out accuracy against the generator's labels, over nodes no wave
  // relabeled.
  const double accuracy = HeldOutAccuracy(hin, final_confidences, train, relabeled);

  double build_ms = 0.0;
  std::unique_ptr<tmark::core::PreparedOperators> ops;
  {
    ScopedSpan span("core.prepared_build");
    ops = std::make_unique<tmark::core::PreparedOperators>(
        tmark::core::PreparedOperators::Build(hin, config.similarity));
    build_ms = span.Close();
  }
  report->Check(ops->fingerprint() == final_fingerprint &&
                    tmark::core::FingerprintOperators(hin, config.similarity) ==
                        final_fingerprint,
                "final published fingerprint equals a from-scratch build");
  tmark::core::TMarkClassifier cold(config);
  double cold_fit_ms = 0.0;
  {
    ScopedSpan span("core.fit");
    cold.Fit(hin, *ops, train);
    cold_fit_ms = span.Close();
  }
  double max_gap = 0.0;
  for (std::size_t i = 0; i < final_confidences.data().size(); ++i) {
    max_gap = std::max(max_gap, std::abs(final_confidences.data()[i] -
                                         cold.Confidences().data()[i]));
  }
  report->Check(final_confidences.rows() == cold.Confidences().rows() &&
                    final_confidences.cols() == cold.Confidences().cols() &&
                    max_gap <= kUpdateTolerance,
                "posteriors agree with a cold fit within kUpdateTolerance (gap " +
                    std::to_string(max_gap) + ")");
  report->Check(ColumnsStochastic(final_confidences, 1e-9),
                "posterior columns are stochastic");

  std::vector<double> update_total;
  for (const UpdateTimes& t : times) update_total.push_back(t.total_ms);
  const double update_p50 = Median(update_total);
  const std::vector<double> lookup_latency = Latencies(lookups, false);
  const double ok_frac =
      static_cast<double>(updates.succeeded + lookup_phase.succeeded) /
      static_cast<double>(updates.attempted + lookup_phase.attempted);
  report->EndToEnd("setup_s", Median(setup_s) * host.factor(), "s");
  report->EndToEnd("op_p50_ms", update_p50 * host.factor(), "ms");
  report->EndToEnd("accuracy", accuracy, "fraction");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  report->EndToEnd("ok_frac", ok_frac, "fraction");
  report->Named("setup_raw_s", Median(setup_s), "s");
  report->Named("host_probe_ms", host.median_ms(), "ms");
  report->Named("update_p50_ms", update_p50, "ms");
  report->Named("updates", static_cast<double>(times.size()), "count");
  report->Named("lookup_p99_ms", Quantile(lookup_latency, 0.99), "ms");
  report->Named("lookup_samples", static_cast<double>(lookup_latency.size()), "count");
  report->Named("stale_lookups", static_cast<double>(stale), "count");
  report->Named("cold_fit_max_gap", max_gap, "probability");
  report->Named("failed_frac", 1.0 - ok_frac, "fraction");

  if (!options.traced) return;
  std::vector<double> traced_ms, untraced_ms;
  for (const UpdateTimes& t : times) {
    (t.traced ? traced_ms : untraced_ms).push_back(t.total_ms);
  }
  std::vector<double> late;
  for (const Outcome& o : lookups) late.push_back(o.late_ms);
  ReportLoad(hin_path, Median(load_ms), report);
  report->Layer("core.prepared_build_ms", build_ms, "ms");
  ProbeBuild(hin, *ops, report);
  report->Layer("update.daemon_overhead_ms", update_p50 - core_update_ms, "ms");
  report->Layer("serve.wire_ms_p50", wire_p50, "ms");
  report->Layer("serve.rejected", served.rejected, "count");
  report->Layer("serve.stale_frac",
                static_cast<double>(stale) /
                    static_cast<double>(std::max<std::size_t>(lookups.size(), 1)),
                "fraction");
  ProbeProtocol(report);
  report->Layer("loadgen.late_p99_ms", Quantile(late, 0.99), "ms");
  report->Layer("trace.overhead_pct",
                100.0 * (Median(traced_ms) - Median(untraced_ms)) /
                    Median(untraced_ms),
                "%");

  // The layers the update stream does not exercise, replayed on the final
  // network: the fit and its kernels at every width, model I/O, seed walks
  // and a classify job.
  const FitRun serial = FitAt(1, hin, *ops, train, config);
  ReportFit(cold_fit_ms, serial.ms, cold, hin.NumLinks(), report);
  ProbeKernels(hin, *ops, cold, config, hin.num_classes(), "", report);
  ProbeKernels(hin, *ops, cold, config, 1, ".w1", report);
  ProbeKernels(hin, *ops, cold, config, options.threads, ".wN", report);
  ProbeDispatch(options.threads, report);
  ProbeModelIo(cold, options.dir + "/model.out", report);
  ProbeQueryEngine(*ops, config, walk_seeds, options.threads, 3, report);
  ProbeClassifyJobs(options, config, train, 2, report);
}

}  // namespace tmbench
