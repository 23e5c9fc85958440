// `tmbench gen`: writes a workload's seeded inputs before any timing.
//
// Networks come from the library's presets: `synthetic:100000` drawn from
// the workload seed, and `dblp` as shipped. Training splits are stratified
// draws; request schedules are Poisson arrivals with uniform-random seed
// nodes. The update_100k delta stream cycles
//
//   label wave (held-out nodes), label wave (training nodes), mix A,
//   label wave (held-out nodes), label wave (training nodes), mix B
//
// where mix A removes, adds and reweights ~0.1% of the edges and rewrites
// a few feature rows, and mix B undoes exactly that. Every cycle therefore
// starts from the original edges and features, so each delta is valid in
// order without the generator applying any of them, and the stream is as
// long as any run can consume. The other workloads get one cycle, which
// their traced runs replay through the update path. The daemon's training
// set is fixed when it starts, so the training-node waves add classes to
// nodes already in it: that is how labels reach the restart vectors
// through ServingDaemon.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "tmark/common/random.h"
#include "tmark/datasets/presets.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"
#include "workloads.h"

namespace tmbench {
namespace {

using tmark::Rng;
using tmark::hin::Hin;
using tmark::hin::HinDelta;
using tmark::serve::Request;
using tmark::serve::RequestKind;

/// `fraction` of each class's labeled nodes (at least one per class), by
/// primary label; sorted.
std::vector<std::size_t> StratifiedTrain(const Hin& hin, double fraction,
                                         Rng* rng) {
  std::vector<std::vector<std::size_t>> by_class(hin.num_classes());
  for (const std::size_t node : hin.NodesWithLabels()) {
    by_class[hin.PrimaryLabel(node)].push_back(node);
  }
  std::vector<std::size_t> train;
  for (std::vector<std::size_t>& pool : by_class) {
    if (pool.empty()) continue;
    const std::size_t take = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(fraction * static_cast<double>(pool.size()))));
    rng->Shuffle(&pool);
    train.insert(train.end(), pool.begin(),
                 pool.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(take, pool.size())));
  }
  std::sort(train.begin(), train.end());
  return train;
}

/// Poisson arrivals at `rate_qps` for `duration_ms`; `make` picks each
/// request.
template <typename Make>
SchedulePhase PoissonPhase(const std::string& name, double rate_qps,
                           double duration_ms, Rng* rng, Make make) {
  SchedulePhase phase{name, rate_qps, duration_ms, {}};
  const double mean_gap_us = 1e6 / rate_qps;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->Uniform()) * mean_gap_us;
    if (t >= duration_ms * 1000.0) break;
    phase.requests.push_back({t, make(rng)});
  }
  return phase;
}

Request MakeRequest(RequestKind kind, std::size_t node, std::size_t k) {
  Request request;
  request.kind = kind;
  request.node = node;
  request.top_k = k;
  return request;
}

/// serve_dblp traffic: 90% seed walks (rank and topk alike), 10% lookups.
Request ServeMix(std::size_t n, Rng* rng) {
  const double u = rng->Uniform();
  const std::size_t node = rng->UniformInt(n);
  if (u < kSeedWalkShare / 2) return MakeRequest(RequestKind::kRank, node, kRankK);
  if (u < kSeedWalkShare) return MakeRequest(RequestKind::kTopK, node, kTopK);
  return MakeRequest(RequestKind::kClassify, node, 0);
}

/// A wave of `count` new (node, class) labels on nodes drawn from `pool`;
/// `taken` holds every pair already present or already added.
HinDelta LabelWave(const Hin& hin, const std::vector<std::size_t>& pool,
                   std::size_t count,
                   std::set<std::pair<std::size_t, std::size_t>>* taken,
                   Rng* rng) {
  HinDelta delta;
  std::set<std::size_t> used;
  for (std::size_t guard = 0; delta.size() < count && guard < count * 64;
       ++guard) {
    const std::size_t node = pool[rng->UniformInt(pool.size())];
    const std::size_t cls = rng->UniformInt(hin.num_classes());
    if (hin.HasLabel(node, cls) || taken->count({node, cls}) != 0 ||
        !used.insert(node).second) {
      continue;
    }
    taken->insert({node, cls});
    delta.AddLabel(node, cls);
  }
  return delta;
}

/// Mix A (returned) and its inverse mix B (`*undo`) over the original
/// network: removes, adds and reweights in rotation, plus feature rows.
HinDelta EdgeMix(const Hin& hin, Rng* rng, HinDelta* undo) {
  HinDelta apply;
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> used;
  const std::size_t n = hin.num_nodes();
  std::size_t made = 0;
  for (std::size_t guard = 0; made < kMixEdgeOps && guard < kMixEdgeOps * 64;
       ++guard) {
    const std::size_t kind = made % 3;
    const std::size_t k = rng->UniformInt(hin.num_relations());
    const tmark::la::SparseMatrix& rel = hin.relation(k);
    if (kind == 2) {  // Add an absent edge; the undo removes it.
      const std::size_t i = rng->UniformInt(n);
      const std::size_t j = rng->UniformInt(n);
      if (i == j || rel.FindEntry(i, j) != tmark::la::SparseMatrix::npos ||
          !used.emplace(k, i, j).second) {
        continue;
      }
      apply.AddEdge(k, /*src=*/j, /*dst=*/i, 0.5 + rng->Uniform());
      undo->RemoveEdge(k, /*src=*/j, /*dst=*/i);
    } else {  // Remove or reweight a stored edge; the undo restores it.
      const std::size_t nnz = rel.NumNonZeros();
      if (nnz == 0) continue;
      const std::size_t p = rng->UniformInt(nnz);
      std::size_t i = 0, hi = rel.rows();  // The row holding entry p.
      while (i + 1 < hi) {
        const std::size_t mid = (i + hi) / 2;
        (rel.row_ptr()[mid] <= p ? i : hi) = mid;
      }
      const std::size_t j = rel.col_idx()[p];
      const double w = rel.values()[p];
      if (!used.emplace(k, i, j).second) continue;
      if (kind == 0) {
        apply.RemoveEdge(k, /*src=*/j, /*dst=*/i);
        undo->AddEdge(k, /*src=*/j, /*dst=*/i, w);
      } else {
        apply.ReweightEdge(k, /*src=*/j, /*dst=*/i, 0.5 + rng->Uniform());
        undo->ReweightEdge(k, /*src=*/j, /*dst=*/i, w);
      }
    }
    ++made;
  }
  const tmark::la::SparseMatrix& features = hin.features();
  std::set<std::size_t> rows;
  while (rows.size() < kMixFeatureRows) rows.insert(rng->UniformInt(n));
  for (const std::size_t node : rows) {
    std::vector<std::pair<std::size_t, double>> original;
    for (std::size_t p = features.row_ptr()[node];
         p < features.row_ptr()[node + 1]; ++p) {
      original.emplace_back(features.col_idx()[p], features.values()[p]);
    }
    std::vector<std::pair<std::size_t, double>> fresh;
    std::set<std::size_t> dims;
    while (dims.size() < 3) dims.insert(rng->UniformInt(hin.feature_dim()));
    for (const std::size_t dim : dims) fresh.emplace_back(dim, 1.0 + rng->Uniform());
    apply.UpdateFeatureRow(node, fresh);
    undo->UpdateFeatureRow(node, original);
  }
  return apply;
}

bool GenerateDeltas(const Hin& hin, const std::vector<std::size_t>& train,
                    std::size_t cycles, Rng* rng, const std::string& dir) {
  std::vector<std::size_t> held_out;
  std::set<std::size_t> in_train(train.begin(), train.end());
  for (std::size_t node = 0; node < hin.num_nodes(); ++node) {
    if (in_train.count(node) == 0) held_out.push_back(node);
  }
  std::set<std::pair<std::size_t, std::size_t>> taken;
  std::filesystem::create_directories(dir + "/deltas");
  std::vector<std::string> names;
  const auto save = [&](const HinDelta& delta, const std::string& kind) {
    char name[64];
    std::snprintf(name, sizeof(name), "deltas/%05zu_%s.delta", names.size(),
                  kind.c_str());
    names.push_back(name);
    return tmark::hin::SaveHinDeltaToFile(delta, dir + "/" + name).ok();
  };
  for (std::size_t c = 0; c < cycles; ++c) {
    HinDelta undo;
    const HinDelta mix = EdgeMix(hin, rng, &undo);
    const bool ok =
        save(LabelWave(hin, held_out, kLabelWave, &taken, rng), "heldout") &&
        save(LabelWave(hin, train, kLabelWave, &taken, rng), "train") &&
        save(mix, "mix") &&
        save(LabelWave(hin, held_out, kLabelWave, &taken, rng), "heldout") &&
        save(LabelWave(hin, train, kLabelWave, &taken, rng), "train") &&
        save(undo, "unmix");
    if (!ok) return false;
  }
  return WriteLines(dir + "/deltas.txt", names);
}

}  // namespace

bool WriteIds(const std::string& path, const std::vector<std::size_t>& ids) {
  std::ofstream out(path);
  for (const std::size_t id : ids) out << id << '\n';
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::size_t> ReadIds(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::size_t> ids;
  std::size_t id = 0;
  while (in >> id) ids.push_back(id);
  return ids;
}

bool WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Schedule format: a `phase <name> <rate_qps> <duration_ms>` line, then one
// `<due_us> <request payload>` line per request of that phase.
bool WriteSchedule(const std::string& path,
                   const std::vector<SchedulePhase>& phases) {
  std::ofstream out(path);
  out.precision(17);
  for (const SchedulePhase& phase : phases) {
    out << "phase " << phase.name << ' ' << phase.rate_qps << ' '
        << phase.duration_ms << '\n';
    for (const ScheduledRequest& r : phase.requests) {
      out << r.due_us << ' ' << tmark::serve::FormatRequest(r.request) << '\n';
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<SchedulePhase> ReadSchedule(const std::string& path) {
  std::vector<SchedulePhase> phases;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    if (line.rfind("phase ", 0) == 0) {
      SchedulePhase phase;
      std::string tag;
      in >> tag >> phase.name >> phase.rate_qps >> phase.duration_ms;
      phases.push_back(std::move(phase));
      continue;
    }
    ScheduledRequest r;
    in >> r.due_us;
    std::string payload;
    std::getline(in >> std::ws, payload);
    tmark::Result<Request> request = tmark::serve::ParseRequest(payload);
    if (phases.empty() || !request.ok()) return {};
    r.request = request.value();
    phases.back().requests.push_back(std::move(r));
  }
  return phases;
}

bool Generate(const std::string& workload, std::uint64_t seed, double seconds,
              const std::string& dir) {
  const bool is_dblp = workload == "serve_dblp";
  if (!is_dblp && workload != "classify_100k" && workload != "update_100k") {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return false;
  }
  std::filesystem::create_directories(dir);
  // serve_dblp serves the DBLP preset as shipped (its default generator
  // seed), like a deployment serving one fixed network; the workload seed
  // draws the training split and the request schedule. The 1e5 workloads
  // draw the network itself from the workload seed.
  tmark::datasets::PresetOptions preset;
  if (!is_dblp) preset.seed = seed;
  tmark::Result<Hin> made =
      tmark::datasets::MakePreset(is_dblp ? "dblp" : "synthetic:100000", preset);
  if (!made.ok()) {
    std::fprintf(stderr, "preset: %s\n", made.status().ToString().c_str());
    return false;
  }
  const Hin& hin = made.value();
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const std::vector<std::size_t> train = StratifiedTrain(
      hin, is_dblp ? kTrainFractionDblp : kTrainFraction100k, &rng);
  if (!tmark::hin::SaveHinToFile(hin, dir + "/net.hin").ok() ||
      !WriteIds(dir + "/train.txt", train)) {
    std::fprintf(stderr, "cannot write inputs under %s\n", dir.c_str());
    return false;
  }

  const double total_ms = seconds * 1000.0;
  const std::size_t n = hin.num_nodes();
  std::vector<SchedulePhase> phases;
  if (is_dblp) {
    // Reference slices alternate with the ladder's rungs, so the reference
    // latencies sample the whole run rather than one stretch of it.
    const auto mix = [n](Rng* r) { return ServeMix(n, r); };
    const double slices = static_cast<double>(kLadderQps.size() + 1);
    const double reference_ms = total_ms * kReferenceShare / slices;
    const double rung_ms = total_ms * (1.0 - kReferenceShare) /
                           static_cast<double>(kLadderQps.size());
    for (std::size_t r = 0; r <= kLadderQps.size(); ++r) {
      phases.push_back(
          PoissonPhase("reference", kReferenceQps, reference_ms, &rng, mix));
      if (r == kLadderQps.size()) break;
      const double qps = kLadderQps[r];
      phases.push_back(PoissonPhase("rung" + std::to_string(int(qps)), qps,
                                    rung_ms, &rng, mix));
    }
  } else if (workload == "update_100k") {
    phases.push_back(PoissonPhase(
        "lookups", kLookupQps, total_ms, &rng, [n](Rng* r) {
          return MakeRequest(RequestKind::kClassify, r->UniformInt(n), 0);
        }));
  }
  // update_100k gets more cycles than a run gets through: a warm update
  // takes tens to hundreds of milliseconds, so a cycle of six takes well
  // over 300 ms. The other workloads replay one cycle in the traced run.
  const std::size_t cycles =
      workload == "update_100k"
          ? static_cast<std::size_t>(std::ceil(seconds * 5.0)) + 10
          : 1;
  if (!GenerateDeltas(hin, train, cycles, &rng, dir)) return false;
  if (!is_dblp) {
    // The seed walks the traced run of a 1e5 workload sends its daemon.
    phases.push_back(PoissonPhase("walks", kProbeWalkQps, kProbeWalkMs, &rng,
                                  [n](Rng* r) { return ServeMix(n, r); }));
  }
  return WriteSchedule(dir + "/schedule.txt", phases);
}

}  // namespace tmbench
