// serve_dblp: a warm ServingDaemon behind a SocketServer on a Unix socket,
// serving the DBLP preset to an open-loop generator: 90% rank/topk seed
// walks and 10% classify lookups with uniform-random seeds, first at the
// reference rate and then up a ladder of fixed rates. Protocol, server,
// batcher, PanelQueryEngine and the panel kernels at width <= N on
// cache-resident operators do the work; load and operator build appear
// only in setup_s.

#include <algorithm>
#include <string>
#include <vector>

#include "calibrate.h"
#include "layers.h"
#include "loadgen.h"
#include "tmark/obs/metrics.h"
#include "tmark/serve/query_engine.h"
#include "workloads.h"

namespace tmbench {
namespace {

using tmark::serve::RequestKind;

constexpr int kSetupRepeats = 3;

/// Late-send p99 over the last tenth of a phase: whether the backlog was
/// still growing when the phase ended.
double TailLateness(const std::vector<Outcome>& outcomes) {
  std::vector<double> late;
  for (std::size_t i = outcomes.size() - outcomes.size() / 10;
       i < outcomes.size(); ++i) {
    late.push_back(outcomes[i].late_ms);
  }
  return Quantile(late, 0.99);
}

}  // namespace

void RunServe(const RunOptions& options, Report* report) {
  const std::string hin_path = options.dir + "/net.hin";
  const std::string socket_path = options.dir + "/serve.sock";
  const std::vector<std::size_t> train = ReadIds(options.dir + "/train.txt");
  const std::vector<SchedulePhase> schedule =
      ReadSchedule(options.dir + "/schedule.txt");
  report->Check(schedule.size() == 2 * kLadderQps.size() + 1, "schedule parsed");
  if (!report->correct()) return;
  const tmark::core::TMarkConfig config = FitConfig(/*ica_update=*/true);
  tmark::serve::DaemonOptions daemon_options;
  daemon_options.config = config;
  daemon_options.query = tmark::serve::MakeQueryOptions(config);

  // Cold starts: the last of the first few stays up and serves the run.
  // One more runs before each schedule phase, on its own socket, so the
  // set-up samples span the run like the latencies do (a DBLP cold start
  // takes ~50 ms, shorter than the host's slow and fast spells).
  HostSpeed host;
  host.Sample();
  Phase& setups = report->AddPhase("setup");
  Serving serving;
  std::vector<double> setup_s, load_ms;
  if (!ColdStarts(kSetupRepeats, hin_path, train, daemon_options, socket_path,
                  report, &setups, &serving, &setup_s, &load_ms)) {
    return;
  }
  LoadGenerator generator;
  const tmark::Status connected = generator.Connect(socket_path, options.threads);
  report->Check(connected.ok(), "connect: " + connected.ToString());
  if (!connected.ok()) return;
  const tmark::serve::BundleHolder::View view = serving.daemon->bundles().Acquire();
  const tmark::serve::ServingBundle& bundle = *view.bundle;

  // Untraced runs play the schedule in order. The traced run plays the
  // reference slices first, alternating untraced and traced ones for the
  // tracing overhead, then the ladder; the obs registry is reset between
  // the two so each set of serve.* metrics covers one load regime.
  tmark::obs::Registry& registry = tmark::obs::Registry::Instance();
  std::vector<const SchedulePhase*> order;
  for (const SchedulePhase& p : schedule) {
    if (!options.traced || p.name == "reference") order.push_back(&p);
  }
  for (const SchedulePhase& p : schedule) {
    if (options.traced && p.name != "reference") order.push_back(&p);
  }
  Phase& reference_phase = report->AddPhase("reference");
  Phase& ladder_phase = report->AddPhase("ladder");
  std::vector<Outcome> reference, untraced_reference, served;
  ServeSnapshot at_reference;
  double max_qps = 0.0;
  std::size_t slice = 0;
  bool ladder_started = false;
  for (const SchedulePhase* phase : order) {
    const bool is_reference = phase->name == "reference";
    if (options.traced) {
      const bool on = !is_reference || slice % 2 == 1;
      if (!is_reference && !ladder_started) {
        at_reference = ServeSnapshot::Take();
        registry.Reset();
        ladder_started = true;
      }
      SpanLog::Instance().SetEnabled(on);
      registry.set_enabled(on);
    }
    host.Sample();
    {
      Serving extra;  // Torn down before the phase starts.
      if (!ColdStarts(1, hin_path, train, daemon_options,
                      options.dir + "/setup.sock", report, &setups, &extra,
                      &setup_s, &load_ms)) {
        return;
      }
    }
    const std::vector<Outcome> outcomes = generator.Run(*phase);
    served.insert(served.end(), outcomes.begin(), outcomes.end());
    if (is_reference) {
      const bool untraced = options.traced && slice % 2 == 0;
      std::vector<Outcome>& into = untraced ? untraced_reference : reference;
      into.insert(into.end(), outcomes.begin(), outcomes.end());
      Account(outcomes, &reference_phase);
      ++slice;
      continue;
    }
    Account(outcomes, &ladder_phase);
    const bool none_missing =
        std::all_of(outcomes.begin(), outcomes.end(), [](const Outcome& o) {
          return o.kind == Outcome::Kind::kOk;
        });
    const double p99 = Quantile(Latencies(outcomes, true), 0.99);
    const bool met = none_missing && p99 <= kRankLimitMs &&
                     TailLateness(outcomes) <= kRankLimitMs;
    report->Named("rank_p99_ms@" + phase->name, p99, "ms");
    if (met) max_qps = std::max(max_qps, phase->rate_qps);
  }
  const ServeSnapshot at_ladder = ServeSnapshot::Take();
  const double peak_rss_mb = PeakRssMb();

  // Correctness: every answer carries the served fingerprint; lookups
  // equal the bundle's posteriors; a sample of seed walks equals a
  // width-1 PanelQueryEngine::Run bit for bit.
  const std::uint64_t fingerprint = tmark::core::FingerprintOperators(
      serving.daemon->hin(), config.similarity);
  bool stamped = bundle.fingerprint == fingerprint;
  bool lookups_equal = true;
  std::vector<const Outcome*> walks;
  for (const Outcome& o : served) {
    if (o.kind != Outcome::Kind::kOk) continue;
    stamped = stamped && o.response.fingerprint == fingerprint &&
              o.response.generation == bundle.generation;
    if (o.request_kind == RequestKind::kClassify) {
      tmark::la::Vector row(bundle.num_classes());
      for (std::size_t c = 0; c < row.size(); ++c) {
        row[c] = bundle.confidences.At(o.node, c);
      }
      lookups_equal = lookups_equal &&
                      SameEntries(TopKEntries(row, row.size()), o.response.entries);
    } else {
      walks.push_back(&o);
    }
  }
  report->Check(stamped, "every response carries the served fingerprint");
  report->Check(lookups_equal, "classify answers equal the served posteriors");
  tmark::serve::PanelQueryEngine engine(daemon_options.query);
  std::vector<tmark::serve::SeedQueryResult> results;
  const std::size_t samples = std::min<std::size_t>(48, walks.size());
  bool walks_equal = samples > 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const Outcome& o = *walks[s * walks.size() / samples];
    engine.Run(*bundle.ops, {o.node}, &results);
    const auto expected = TopKEntries(
        o.request_kind == RequestKind::kRank ? results[0].z : results[0].x,
        o.top_k);
    walks_equal = walks_equal && SameEntries(expected, o.response.entries);
  }
  report->Check(walks_equal,
                "sampled rank/topk answers equal width-1 PanelQueryEngine::Run");

  const double accuracy =
      HeldOutAccuracy(serving.daemon->hin(), bundle.confidences, train);
  const std::vector<double> rank_latency = Latencies(reference, true);
  const double ok_frac =
      static_cast<double>(reference_phase.succeeded + ladder_phase.succeeded) /
      static_cast<double>(reference_phase.attempted + ladder_phase.attempted);
  std::vector<double> late;
  for (const Outcome& o : reference) late.push_back(o.late_ms);
  report->EndToEnd("setup_s", Median(setup_s) * host.factor(), "s");
  report->EndToEnd("op_p50_ms", Median(rank_latency) * host.factor(), "ms");
  report->EndToEnd("accuracy", accuracy, "fraction");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  report->EndToEnd("ok_frac", ok_frac, "fraction");
  report->Named("setup_raw_s", Median(setup_s), "s");
  report->Named("host_probe_ms", host.median_ms(), "ms");
  report->Named("rank_p50_ms", Median(rank_latency), "ms");
  report->Named("rank_p99_ms", Quantile(rank_latency, 0.99), "ms");
  report->Named("rank_samples", static_cast<double>(rank_latency.size()), "count");
  report->Named("rank_max_qps", max_qps, "1/s");
  report->Named("lookup_p99_ms", Quantile(Latencies(reference, false), 0.99), "ms");
  report->Named("failed_frac", 1.0 - ok_frac, "fraction");

  if (options.traced) {
    ReportLoad(hin_path, Median(load_ms), report);
    const tmark::hin::Hin& hin = serving.daemon->hin();
    {
      ScopedSpan span("core.prepared_build");
      const auto rebuilt = tmark::core::PreparedOperators::Build(hin, config.similarity);
      report->Layer("core.prepared_build_ms", span.Close(), "ms");
    }
    ProbeBuild(hin, *bundle.ops, report);
    const FitRun fit_n = FitAt(options.threads, hin, *bundle.ops, train, config);
    const FitRun fit_1 = FitAt(1, hin, *bundle.ops, train, config);
    ReportFit(fit_n.ms, fit_1.ms, fit_n.classifier, hin.NumLinks(), report);
    ProbeKernels(hin, *bundle.ops, fit_n.classifier, config, 1, ".w1", report);
    ProbeKernels(hin, *bundle.ops, fit_n.classifier, config, options.threads,
                 ".wN", report);
    ProbeDispatch(options.threads, report);
    ProbeModelIo(fit_n.classifier, options.dir + "/model.out", report);
    ReportBatcher(at_reference, report);
    // The ladder is where batches widen.
    report->Layer("serve.batch_width_mean", at_ladder.batch_width_mean,
                  "count");
    report->Layer("serve.rejected", at_reference.rejected + at_ladder.rejected,
                  "count");
    report->Layer("serve.stale_frac",
                  (at_reference.stale + at_ladder.stale) /
                      (at_reference.requests + at_ladder.requests),
                  "fraction");
    ProbeWire(&generator, hin.num_nodes(), report);
    std::vector<std::size_t> seeds;
    for (const Outcome* o : walks) seeds.push_back(o->node);
    ProbeQueryEngine(*bundle.ops, config, seeds, options.threads, 20, report);
    ProbeProtocol(report);
    report->Layer("loadgen.late_p99_ms", Quantile(late, 0.99), "ms");
    // The layers serving does not exercise, replayed on the served
    // network: the batch fit's kernel width, a classify job, and the update
    // path, last on the serving daemon itself.
    ProbeKernels(hin, *bundle.ops, fit_n.classifier, config,
                 hin.num_classes(), "", report);
    ProbeClassifyJobs(options, config, train, 5, report);
    const double core_update_ms =
        ProbeUpdatePath(hin, config, train, options.dir, report);
    report->Layer("update.daemon_overhead_ms",
                  DaemonUpdateMs(serving.daemon.get(), options.dir, report) -
                      core_update_ms,
                  "ms");
    const double untraced_p50 = Median(Latencies(untraced_reference, true));
    report->Layer("trace.overhead_pct",
                  100.0 * (Median(rank_latency) - untraced_p50) / untraced_p50,
                  "%");
  }
  generator.Close();
}

}  // namespace tmbench
