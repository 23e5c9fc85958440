#ifndef TMBENCH_WORKLOADS_H_
#define TMBENCH_WORKLOADS_H_

// The three workloads of the T-Mark benchmark, their fixed parameters, and
// the on-disk inputs `tmbench gen` writes before any timing starts:
//
//   <dir>/net.hin        the network (tmark-hin text format)
//   <dir>/train.txt      training node ids, one per line
//   <dir>/schedule.txt   open-loop request schedule; the 1e5 workloads end
//                        it with a short `walks` phase for the traced run
//   <dir>/deltas.txt     ordered delta file names (one cycle of six, or
//                        as many cycles as a run can use in update_100k)
//   <dir>/deltas/*.delta HinDelta batches (tmark-delta text format)
//
// `tmbench run` reads only these files.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "tmark/core/tmark.h"
#include "tmark/serve/protocol.h"

namespace tmbench {

// --- Fixed workload parameters ------------------------------------------

/// Fraction of labeled nodes in the training set of classify_100k and
/// update_100k (the paper's sparse-label regime).
inline constexpr double kTrainFraction100k = 0.1;
/// Training fraction of the served DBLP model.
inline constexpr double kTrainFractionDblp = 0.2;

/// serve_dblp: request mix and the latency limit of the rate ladder.
inline constexpr double kSeedWalkShare = 0.9;  ///< rank + topk; rest classify.
inline constexpr std::size_t kRankK = 5;
inline constexpr std::size_t kTopK = 10;
inline constexpr double kRankLimitMs = 25.0;
/// Reference rate at which rank_p50/p99 and lookup_p99 are reported.
inline constexpr double kReferenceQps = 100.0;
/// Share of the run spent at the reference rate, in slices between the
/// ladder rungs; the rest is the ladder.
inline constexpr double kReferenceShare = 0.5;
/// Ladder rungs (requests per second), each held for an equal slice.
inline const std::vector<double> kLadderQps = {125, 150, 200, 250, 300, 350};

/// update_100k: classify lookups per second beside the update stream.
inline constexpr double kLookupQps = 200.0;
/// Label additions per label wave, and edge ops per edge/feature mix
/// (~0.1% of the 1.2 M stored entries of synthetic:100000).
inline constexpr std::size_t kLabelWave = 100;
inline constexpr std::size_t kMixEdgeOps = 1200;
inline constexpr std::size_t kMixFeatureRows = 20;
/// Largest |x_warm - x_cold| allowed between the daemon's posteriors after
/// the updates and a cold fit of the final network (ICA off, so both solve
/// the same unique fixed point; the gap is the convergence tolerance).
inline constexpr double kUpdateTolerance = 1e-6;

/// The `walks` phase of the 1e5 workloads' schedules: seed walks (mixed as
/// in serve_dblp) that their traced runs send a daemon on the workload's
/// network for the serve.* and query_engine.* layers. A walk takes over
/// 100 ms at 1e5, so the rate is low.
inline constexpr double kProbeWalkQps = 4.0;
inline constexpr double kProbeWalkMs = 5000.0;

// --- Inputs ---------------------------------------------------------------

/// One open-loop request: due `due_us` after its phase starts.
struct ScheduledRequest {
  double due_us = 0.0;
  tmark::serve::Request request;
};

/// A phase of a schedule: requests at a nominal rate for a fixed duration.
struct SchedulePhase {
  std::string name;
  double rate_qps = 0.0;
  double duration_ms = 0.0;
  std::vector<ScheduledRequest> requests;
};

bool WriteIds(const std::string& path, const std::vector<std::size_t>& ids);
std::vector<std::size_t> ReadIds(const std::string& path);
bool WriteLines(const std::string& path, const std::vector<std::string>& lines);
std::vector<std::string> ReadLines(const std::string& path);
bool WriteSchedule(const std::string& path,
                   const std::vector<SchedulePhase>& phases);
std::vector<SchedulePhase> ReadSchedule(const std::string& path);

/// Writes every input of `workload` for `seed` and a run of `seconds`.
/// Returns false (after printing why) on an unknown workload or I/O error.
bool Generate(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& dir);

// --- Runs -----------------------------------------------------------------

struct RunOptions {
  std::string dir;       ///< Inputs written by Generate.
  double seconds = 10;   ///< Measured duration.
  bool traced = false;   ///< Per-layer run (spans + obs metrics on).
  std::size_t threads = 1;  ///< N: fit pool width and loadgen connections.
};

void RunClassify(const RunOptions& options, Report* report);
/// classify.unattributed_pct: the median share of `jobs` classify jobs
/// (load, operator build, fit and model save of <dir>/net.hin) that none
/// of the four layer calls accounts for.
void ProbeClassifyJobs(const RunOptions& options,
                       const tmark::core::TMarkConfig& config,
                       const std::vector<std::size_t>& train, int jobs,
                       Report* report);
void RunServe(const RunOptions& options, Report* report);
void RunUpdate(const RunOptions& options, Report* report);

// --- Helpers shared by the workloads ---------------------------------------

/// The fit configuration of every workload (paper defaults, batched fit);
/// update_100k turns ICA off so warm and cold fits share one fixed point.
tmark::core::TMarkConfig FitConfig(bool ica_update);

/// Held-out accuracy of `confidences` (argmax vs. primary label) over the
/// labeled nodes of `hin` that are not in `train` and not in `exclude`.
double HeldOutAccuracy(const tmark::hin::Hin& hin,
                       const tmark::la::DenseMatrix& confidences,
                       const std::vector<std::size_t>& train,
                       const std::vector<std::size_t>& exclude = {});

/// FNV-1a digest of a matrix's bytes (bit-identity checks).
std::uint64_t Digest(const tmark::la::DenseMatrix& m);

/// True when every column of `m` is non-negative and sums to 1 within tol.
bool ColumnsStochastic(const tmark::la::DenseMatrix& m, double tol);

/// Top-k (index, score) entries, scores descending and ties by ascending
/// index: the order the daemon answers rank/topk/classify in.
std::vector<tmark::serve::ScoredEntry> TopKEntries(
    const tmark::la::Vector& values, std::size_t k);

/// True when two answers list the same indices with bit-identical scores.
bool SameEntries(const std::vector<tmark::serve::ScoredEntry>& a,
                 const std::vector<tmark::serve::ScoredEntry>& b);

}  // namespace tmbench

#endif  // TMBENCH_WORKLOADS_H_
