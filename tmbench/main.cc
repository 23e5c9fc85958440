// tmbench: the T-Mark benchmark binary (run.py builds and drives it).
//
//   tmbench gen --workload W --seed S --seconds T --dir D
//       writes the seeded inputs of workload W under D;
//   tmbench run --workload W --seconds T --trace 0|1 --threads N --dir D
//       measures W on those inputs for T seconds, checks the outputs, and
//       prints a table followed by one JSON result line.
//
// Exit codes: 0 on a correct run, 1 when a correctness check failed, 2 on
// bad arguments or missing inputs.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "report.h"
#include "tmark/obs/metrics.h"
#include "tmark/parallel/thread_pool.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: tmbench gen --workload W --seed S --seconds T --dir D\n"
               "       tmbench run --workload W --seconds T --trace 0|1 "
               "--threads N --dir D\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || (argc - 2) % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&](const char* name) {
    const auto it = args.find(name);
    return it == args.end() ? std::string() : it->second;
  };
  const std::string workload = arg("--workload");
  const std::string dir = arg("--dir");
  const double seconds = std::atof(arg("--seconds").c_str());
  if (workload.empty() || dir.empty() || !(seconds > 0)) return Usage();

  if (command == "gen") {
    const std::string seed = arg("--seed");
    if (seed.empty()) return Usage();
    return tmbench::Generate(workload, std::strtoull(seed.c_str(), nullptr, 10),
                             seconds, dir)
               ? 0
               : 2;
  }
  if (command != "run") return Usage();

  tmbench::RunOptions options;
  options.dir = dir;
  options.seconds = seconds;
  options.traced = arg("--trace") == "1";
  options.threads = std::strtoull(arg("--threads").c_str(), nullptr, 10);
  if (options.threads == 0) return Usage();
  tmark::parallel::SetNumThreads(options.threads);
  tmbench::SpanLog::Instance().SetEnabled(options.traced);
  tmark::obs::Registry::Instance().set_enabled(options.traced);

  tmbench::Report report;
  if (workload == "classify_100k") {
    tmbench::RunClassify(options, &report);
  } else if (workload == "serve_dblp") {
    tmbench::RunServe(options, &report);
  } else if (workload == "update_100k") {
    tmbench::RunUpdate(options, &report);
  } else {
    return Usage();
  }
  if (options.traced) {
    const std::string spans = dir + "/spans-" + workload + ".json";
    report.Check(tmbench::SpanLog::Instance().WriteJson(spans),
                 "span log written to " + spans);
    std::printf("spans: %zu recorded, written to %s\n",
                tmbench::SpanLog::Instance().size(), spans.c_str());
  }
  report.Print(options.traced);
  return report.correct() ? 0 : 1;
}
