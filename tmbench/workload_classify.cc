// classify_100k: the offline batch job, repeated for the whole run. One job
// loads the text network, builds the prepared operators, runs the batched
// fit and saves the model. Load, operator build, the fit kernels and
// thread scaling do almost all the work; serving does none.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "calibrate.h"
#include "layers.h"
#include "loadgen.h"
#include "tmark/core/model_io.h"
#include "tmark/hin/hin_io.h"
#include "tmark/obs/metrics.h"
#include "workloads.h"

namespace tmbench {

namespace {

struct JobTimes {
  double load = 0, build = 0, fit = 0, save = 0, total = 0;
  bool traced = false;
};

/// What one job holds. The next job drops it first, so peak memory is one
/// job's.
struct Job {
  std::optional<tmark::hin::Hin> hin;
  std::optional<tmark::core::PreparedOperators> ops;
  std::optional<tmark::core::TMarkClassifier> clf;
};

/// One classify job: load, operator build, fit, model save. Returns false
/// (after a failed check) when the load or the save fails.
bool RunJob(const std::string& hin_path, const std::string& model_path,
            const std::vector<std::size_t>& train,
            const tmark::core::TMarkConfig& config, Job* job, JobTimes* t,
            Report* report) {
  job->clf.reset();
  job->ops.reset();
  job->hin.reset();
  ScopedSpan total("classify.job");
  {
    ScopedSpan span("hin_io.load");
    tmark::Result<tmark::hin::Hin> loaded =
        tmark::hin::LoadHinFromFile(hin_path);
    t->load = span.Close();
    if (!loaded.ok()) {
      report->Check(false, "load: " + loaded.status().ToString());
      return false;
    }
    job->hin.emplace(std::move(loaded.value()));
  }
  {
    ScopedSpan span("core.prepared_build");
    job->ops.emplace(
        tmark::core::PreparedOperators::Build(*job->hin, config.similarity));
    t->build = span.Close();
  }
  {
    ScopedSpan span("core.fit");
    job->clf.emplace(config);
    job->clf->Fit(*job->hin, *job->ops, train);
    t->fit = span.Close();
  }
  tmark::Status saved;
  {
    ScopedSpan span("model_io.save");
    saved = tmark::core::SaveTMarkModelToFile(*job->clf, model_path);
    t->save = span.Close();
  }
  t->total = total.Close();
  if (!saved.ok()) report->Check(false, "save: " + saved.ToString());
  return saved.ok();
}

double UnattributedPct(const JobTimes& t) {
  return 100.0 * (t.total - t.load - t.build - t.fit - t.save) / t.total;
}

}  // namespace

void ProbeClassifyJobs(const RunOptions& options,
                       const tmark::core::TMarkConfig& config,
                       const std::vector<std::size_t>& train, int jobs,
                       Report* report) {
  const std::string model_path = options.dir + "/model.out";
  Job job;
  std::vector<double> pct;
  for (int i = 0; i < jobs; ++i) {
    JobTimes t;
    if (!RunJob(options.dir + "/net.hin", model_path, train, config, &job, &t,
                report)) {
      return;
    }
    pct.push_back(UnattributedPct(t));
  }
  std::remove(model_path.c_str());
  report->Layer("classify.unattributed_pct", Median(pct), "%");
}

void RunClassify(const RunOptions& options, Report* report) {
  const std::string hin_path = options.dir + "/net.hin";
  const std::string model_path = options.dir + "/model.out";
  const std::vector<std::size_t> train = ReadIds(options.dir + "/train.txt");
  const tmark::core::TMarkConfig config = FitConfig(/*ica_update=*/true);
  Phase& jobs = report->AddPhase("jobs");

  Job job;
  std::vector<JobTimes> times;
  std::vector<std::uint64_t> digests;
  double peak_rss_mb = 0.0;
  HostSpeed host;
  const std::size_t min_jobs = options.traced ? 4 : 3;
  const Clock::time_point start = Clock::now();
  while (times.size() < min_jobs ||
         MsSince(start) < options.seconds * 1000.0) {
    host.Sample();
    JobTimes t;
    // The traced run alternates traced and untraced jobs; the gap between
    // their medians is the tracing overhead.
    t.traced = options.traced && times.size() % 2 == 0;
    SpanLog::Instance().SetEnabled(t.traced);
    tmark::obs::Registry::Instance().set_enabled(t.traced);
    ++jobs.attempted;
    if (!RunJob(hin_path, model_path, train, config, &job, &t, report)) {
      ++jobs.failed;
      return;
    }
    ++jobs.succeeded;
    times.push_back(t);
    digests.push_back(Digest(job.clf->Confidences()));
    // A user runs one job per process: the first job's high-water mark is
    // its memory cost. Later jobs would add allocator reuse noise.
    if (times.size() == 1) peak_rss_mb = PeakRssMb();
  }
  SpanLog::Instance().SetEnabled(options.traced);
  tmark::obs::Registry::Instance().set_enabled(options.traced);
  const tmark::hin::Hin& hin = *job.hin;
  const tmark::core::PreparedOperators& ops = *job.ops;
  const tmark::core::TMarkClassifier& clf = *job.clf;

  const auto pick = [&](double JobTimes::*field, bool traced_only) {
    std::vector<double> v;
    for (const JobTimes& t : times) {
      if (!traced_only || t.traced) v.push_back(t.*field);
    }
    return v;
  };
  std::vector<double> setup;
  for (const JobTimes& t : times) setup.push_back((t.load + t.build) / 1000.0);
  const double job_ms = Median(pick(&JobTimes::total, false));
  const double accuracy = HeldOutAccuracy(hin, clf.Confidences(), train);
  const std::size_t q = hin.num_classes();

  // Correctness: deterministic jobs, stochastic posteriors, converged
  // classes, thread-count bit-identity, and a bit-identical model reload.
  report->Check(std::all_of(digests.begin(), digests.end(),
                            [&](std::uint64_t d) { return d == digests[0]; }),
                "every job produced the same posteriors");
  report->Check(ColumnsStochastic(clf.Confidences(), 1e-9),
                "posterior columns are stochastic");
  bool converged = true;
  for (const tmark::core::ConvergenceTrace& trace : clf.Traces()) {
    converged = converged && trace.converged;
  }
  report->Check(converged, "every class converged");
  const FitRun serial = FitAt(1, hin, ops, train, config);
  report->Check(Digest(serial.classifier.Confidences()) == digests.back(),
                "posteriors at 1 thread equal those at N threads bit for bit");
  report->Check(HeldOutAccuracy(hin, serial.classifier.Confidences(), train) ==
                    accuracy,
                "accuracy at 1 thread equals accuracy at N threads");
  report->Check(accuracy > 1.0 / static_cast<double>(q),
                "accuracy is above chance");
  double reload_ms = 0.0;
  {
    ScopedSpan span("model_io.load");
    tmark::Result<tmark::core::TMarkClassifier> reloaded =
        tmark::core::LoadTMarkModelFromFile(model_path);
    reload_ms = span.Close();
    report->Check(reloaded.ok() && Digest(reloaded.value().Confidences()) ==
                                       digests.back(),
                  "reloaded model has bit-identical confidences");
  }
  std::remove(model_path.c_str());

  const double ok_frac =
      static_cast<double>(jobs.succeeded) / static_cast<double>(jobs.attempted);
  report->EndToEnd("setup_s", Median(setup) * host.factor(), "s");
  report->EndToEnd("op_p50_ms", job_ms * host.factor(), "ms");
  report->EndToEnd("accuracy", accuracy, "fraction");
  report->EndToEnd("peak_rss_mb", peak_rss_mb, "MiB");
  report->EndToEnd("ok_frac", ok_frac, "fraction");
  report->Named("classify_job_s", job_ms / 1000.0, "s");
  report->Named("setup_raw_s", Median(setup), "s");
  report->Named("host_probe_ms", host.median_ms(), "ms");
  report->Named("jobs", static_cast<double>(times.size()), "count");
  report->Named("failed_frac", 1.0 - ok_frac, "fraction");

  if (!options.traced) return;
  // Per-layer numbers come from the traced jobs only.
  const double load_ms = Median(pick(&JobTimes::load, true));
  const double build_ms = Median(pick(&JobTimes::build, true));
  const double fit_ms = Median(pick(&JobTimes::fit, true));
  const double save_ms = Median(pick(&JobTimes::save, true));
  const double traced_job_ms = Median(pick(&JobTimes::total, true));
  std::vector<double> untraced;
  std::vector<double> unattributed_pct;
  for (const JobTimes& t : times) {
    if (!t.traced) {
      untraced.push_back(t.total);
    } else {
      unattributed_pct.push_back(UnattributedPct(t));
    }
  }
  ReportLoad(hin_path, load_ms, report);
  report->Layer("core.prepared_build_ms", build_ms, "ms");
  ProbeBuild(hin, ops, report);
  ReportFit(fit_ms, serial.ms, clf, hin.NumLinks(), report);
  ProbeKernels(hin, ops, clf, config, q, "", report);
  ProbeDispatch(options.threads, report);
  report->Layer("model_io.save_ms", save_ms, "ms");
  report->Layer("model_io.load_ms", reload_ms, "ms");
  report->Layer("classify.unattributed_pct", Median(unattributed_pct), "%");
  report->Layer("trace.overhead_pct",
                100.0 * (traced_job_ms - Median(untraced)) / Median(untraced),
                "%");

  // The layers the batch job does not exercise, replayed on its network:
  // the serving widths, seed walks, the wire protocol, the update path,
  // and a daemon serving the schedule's walks.
  ProbeKernels(hin, ops, clf, config, 1, ".w1", report);
  ProbeKernels(hin, ops, clf, config, options.threads, ".wN", report);
  const std::vector<SchedulePhase> schedule =
      ReadSchedule(options.dir + "/schedule.txt");
  report->Check(schedule.size() == 1, "walk schedule parsed");
  if (schedule.size() != 1) return;
  ProbeQueryEngine(ops, config, WalkSeeds(schedule[0]), options.threads, 3,
                   report);
  ProbeProtocol(report);
  const double core_update_ms =
      ProbeUpdatePath(hin, config, train, options.dir, report);
  job = Job();  // The probe daemon loads its own copy.
  tmark::serve::DaemonOptions daemon_options;
  daemon_options.config = config;
  daemon_options.query = tmark::serve::MakeQueryOptions(config);
  ProbeServing(options.dir, train, daemon_options, schedule[0],
               options.threads, core_update_ms, report);
}

}  // namespace tmbench
