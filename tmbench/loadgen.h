#ifndef TMBENCH_LOADGEN_H_
#define TMBENCH_LOADGEN_H_

// Open-loop load generator over the daemon's Unix socket. One thread per
// connection (at most N); every request has a due time from the schedule
// and is sent by the first idle connection at or after it. Latency runs
// from the due time, so a stall also charges the requests queued behind
// it; `late_ms` is how far behind schedule the generator sent.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/serve/daemon.h"
#include "tmark/serve/protocol.h"
#include "tmark/serve/server.h"
#include "workloads.h"

namespace tmbench {

struct Outcome {
  enum class Kind { kOk, kFailed, kRefused };
  Kind kind = Kind::kFailed;
  double latency_ms = 0.0;  ///< Reply received minus due time.
  double late_ms = 0.0;     ///< Sent minus due time.
  double rtt_ms = 0.0;      ///< Reply received minus sent.
  tmark::serve::RequestKind request_kind = tmark::serve::RequestKind::kClassify;
  std::size_t node = 0;
  std::size_t top_k = 0;
  tmark::serve::Response response;  ///< Valid when kind == kOk.
};

class LoadGenerator {
 public:
  LoadGenerator() = default;
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens `connections` client connections to `socket_path`.
  tmark::Status Connect(const std::string& socket_path,
                        std::size_t connections);

  /// Plays one schedule phase; outcomes are in schedule order.
  std::vector<Outcome> Run(const SchedulePhase& phase);

  /// Closes every connection (the server's connection threads then end).
  void Close();

 private:
  std::vector<int> fds_;
  std::uint64_t next_request_id_ = 1;
};

/// A listening daemon. Members are declared so that the server (which
/// points at the daemon) is destroyed first.
struct Serving {
  std::unique_ptr<tmark::serve::ServingDaemon> daemon;
  std::unique_ptr<tmark::serve::SocketServer> server;
  double load_ms = 0.0;   ///< Text network load.
  double setup_s = 0.0;   ///< Load + Init + listen.
};

/// Cold start: loads `hin_path`, Init()s a daemon on `train` (cold fit and
/// first publish) and listens on `socket_path`.
tmark::Status StartServing(const std::string& hin_path,
                           const std::vector<std::size_t>& train,
                           const tmark::serve::DaemonOptions& options,
                           const std::string& socket_path, Serving* serving);

/// The daemon-side serve.* obs metrics accumulated since the registry was
/// last reset (traced runs only; the registry is off otherwise).
struct ServeSnapshot {
  double exec_p50 = 0, exec_p99 = 0, request_p50 = 0, request_p99 = 0;
  double batch_width_mean = 0, rejected = 0, stale = 0, requests = 0;

  static ServeSnapshot Take();
};

/// `repeats` cold starts counted in `setups`; the last daemon stays up in
/// `serving`. Appends each start's setup seconds and load milliseconds.
/// Returns false (with a failed check) when a start fails.
bool ColdStarts(int repeats, const std::string& hin_path,
                const std::vector<std::size_t>& train,
                const tmark::serve::DaemonOptions& options,
                const std::string& socket_path, Report* report,
                Phase* setups, Serving* serving, std::vector<double>* setup_s,
                std::vector<double>* load_ms);

/// Latencies of the successful seed walks (rank/topk) or, with
/// `seed_walks` false, of the successful classify lookups.
std::vector<double> Latencies(const std::vector<Outcome>& outcomes,
                              bool seed_walks);

/// Adds every outcome to `phase`'s attempted/succeeded/failed/refused.
void Account(const std::vector<Outcome>& outcomes, Phase* phase);

/// Seed nodes of the rank/topk requests of `phase`, in schedule order.
std::vector<std::size_t> WalkSeeds(const SchedulePhase& phase);

/// serve.exec_ms_p50 and serve.queue_wait_ms_p50/_p99 (request minus
/// batch execution) from `snapshot`.
void ReportBatcher(const ServeSnapshot& snapshot, Report* report);

/// serve.wire_ms_p50: a closed loop of classify lookups (they bypass the
/// batcher) on nodes below `num_nodes`, client round trip minus the
/// server's own request time. Resets the obs registry.
void ProbeWire(LoadGenerator* generator, std::size_t num_nodes,
               Report* report);

/// Median wall time, in ms, of submitting the deltas of one cycle in
/// <dir>/deltas.txt to `daemon` one at a time: LoadHinDeltaFromFile,
/// BeginUpdate, WaitForUpdate. Failures are checks of `report`.
double DaemonUpdateMs(tmark::serve::ServingDaemon* daemon,
                      const std::string& dir, Report* report);

/// The serving layers of a workload without a daemon of its own: cold
/// starts one on <dir>/net.hin, plays `walks` over `connections`
/// connections, and reports ReportBatcher's metrics,
/// serve.batch_width_mean, serve.rejected,
/// serve.stale_frac, loadgen.late_p99_ms, ProbeWire's metric and
/// update.daemon_overhead_ms (DaemonUpdateMs minus `core_update_ms`).
void ProbeServing(const std::string& dir,
                  const std::vector<std::size_t>& train,
                  const tmark::serve::DaemonOptions& options,
                  const SchedulePhase& walks, std::size_t connections,
                  double core_update_ms, Report* report);

}  // namespace tmbench

#endif  // TMBENCH_LOADGEN_H_
