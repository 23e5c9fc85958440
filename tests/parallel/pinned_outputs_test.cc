// Bit-for-bit pins of the fit's and the query engine's outputs. Each fit
// scenario — preset network x
// ICA on/off x {cold Fit, warm Refit, warm Update with an edge/feature
// delta, warm Update with a label wave that joins the training set} — is
// reduced to one FNV-1a digest over the confidences, link importance,
// residual traces (with iteration counts and converged flags) and relation
// rankings, and compared with a digest recorded from the fit engine these
// outputs must never drift from. The serving pins digest one mixed batch of
// seed walks (a repeated seed included) per preset. Every scenario runs at
// 1 and 4 threads; both must hit the same recorded digest.
//
// A digest mismatch means some per-column floating-point operation changed
// order or value. If that is intended (a deliberate numerical change),
// re-derive the constants below and say why in the change description.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/presets.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/query_engine.h"

namespace tmark {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

std::uint64_t FnvValue(std::uint64_t h, std::uint64_t v) {
  return Fnv(h, &v, sizeof(v));
}

std::uint64_t DigestFit(const core::TMarkClassifier& clf) {
  std::uint64_t h = 1469598103934665603ULL;
  const la::DenseMatrix& x = clf.Confidences();
  const la::DenseMatrix& z = clf.LinkImportance();
  h = Fnv(h, x.data().data(), x.data().size() * sizeof(double));
  h = Fnv(h, z.data().data(), z.data().size() * sizeof(double));
  for (const core::ConvergenceTrace& trace : clf.Traces()) {
    h = FnvValue(h, trace.class_index);
    h = FnvValue(h, trace.converged ? 1 : 0);
    h = FnvValue(h, trace.residuals.size());
    h = Fnv(h, trace.residuals.data(), trace.residuals.size() * sizeof(double));
  }
  for (std::size_t c = 0; c < z.cols(); ++c) {
    for (const std::size_t k : clf.RankRelationsForClass(c)) {
      h = FnvValue(h, k);
    }
  }
  return h;
}

hin::Hin MakeNetwork(const std::string& preset) {
  datasets::PresetOptions options;
  options.num_nodes = 240;
  options.seed = 7;
  auto hin = datasets::MakePreset(preset, options);
  EXPECT_TRUE(hin.ok()) << hin.status().ToString();
  return *std::move(hin);
}

std::vector<std::size_t> EveryThirdLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) {
    if (!hin.labels(i).empty()) labeled.push_back(i);
  }
  return labeled;
}

// Reweights and removes stored links of relation 0, adds an absent link to
// the last relation, and rewrites node 3's feature row.
hin::HinDelta EdgeDelta(const hin::Hin& hin) {
  hin::HinDelta delta;
  const la::SparseMatrix& r0 = hin.relation(0);
  std::vector<std::pair<std::size_t, std::size_t>> stored;  // (dst, src)
  for (std::size_t i = 0; i < r0.rows() && stored.size() < 2; ++i) {
    for (std::size_t p = r0.row_ptr()[i];
         p < r0.row_ptr()[i + 1] && stored.size() < 2; ++p) {
      stored.emplace_back(i, r0.col_idx()[p]);
    }
  }
  delta.ReweightEdge(0, stored[0].second, stored[0].first, 2.75);
  delta.RemoveEdge(0, stored[1].second, stored[1].first);
  const std::size_t last = hin.num_relations() - 1;
  const la::SparseMatrix& rl = hin.relation(last);
  for (std::size_t i = 0; i < rl.rows(); ++i) {
    const std::size_t j = (i + 7) % hin.num_nodes();
    if (i != j && rl.FindEntry(i, j) == la::SparseMatrix::npos) {
      delta.AddEdge(last, j, i, 1.5);
      break;
    }
  }
  delta.UpdateFeatureRow(3, {{0, 2.5}, {1, 0.75}});
  return delta;
}

// Nodes 1 and 2 (never in EveryThirdLabeled) gain a class they do not carry
// and join the training set: the retirement-hint path of Update.
hin::HinDelta LabelDelta(const hin::Hin& hin,
                         std::vector<std::size_t>* labeled) {
  hin::HinDelta delta;
  for (const std::size_t node : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t c = 0; c < hin.num_classes(); ++c) {
      if (!hin.HasLabel(node, c)) {
        delta.AddLabel(node, c);
        labeled->push_back(node);
        break;
      }
    }
  }
  return delta;
}

enum class Mode { kCold, kRefit, kUpdateEdges, kUpdateLabels };

std::uint64_t RunScenario(const std::string& preset, bool ica, Mode mode) {
  hin::Hin hin = MakeNetwork(preset);
  std::vector<std::size_t> labeled = EveryThirdLabeled(hin);
  core::TMarkConfig config;
  config.ica_update = ica;
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  switch (mode) {
    case Mode::kCold:
      break;
    case Mode::kRefit:
      clf.Refit(hin, labeled);
      break;
    case Mode::kUpdateEdges: {
      const hin::HinDelta delta = EdgeDelta(hin);
      EXPECT_TRUE(clf.Update(&hin, delta, labeled).ok());
      break;
    }
    case Mode::kUpdateLabels: {
      const hin::HinDelta delta = LabelDelta(hin, &labeled);
      EXPECT_TRUE(clf.Update(&hin, delta, labeled).ok());
      break;
    }
  }
  return DigestFit(clf);
}

struct Pin {
  const char* preset;
  bool ica;
  Mode mode;
  std::uint64_t digest;
};

// Recorded from the batched fit engine, the default engine before the fit,
// Update and serving paths were unified on core::PanelSolver.
const Pin kPins[] = {
    {"dblp", true, Mode::kCold, 0x8be7b31ee2814cc9ULL},
    {"dblp", true, Mode::kRefit, 0x9974a88009200036ULL},
    {"dblp", true, Mode::kUpdateEdges, 0xf706f9d57f7cb3c2ULL},
    {"dblp", true, Mode::kUpdateLabels, 0xe247c390b0005832ULL},
    {"dblp", false, Mode::kCold, 0x7b72d32a841da2b8ULL},
    {"dblp", false, Mode::kRefit, 0xa32730353c23d8d1ULL},
    {"dblp", false, Mode::kUpdateEdges, 0x4c5ff7cb7e229440ULL},
    {"dblp", false, Mode::kUpdateLabels, 0x8b8002fbcaeffef9ULL},
    {"movies", true, Mode::kCold, 0x43c02a7e4c47b676ULL},
    {"movies", true, Mode::kRefit, 0xf29da076e181c153ULL},
    {"movies", true, Mode::kUpdateEdges, 0x9ccc7220e979073cULL},
    {"movies", true, Mode::kUpdateLabels, 0xb3496a8c69d78bf8ULL},
    {"movies", false, Mode::kCold, 0xe4c54e6d00f8bf4dULL},
    {"movies", false, Mode::kRefit, 0xf37f0fc3fff537cbULL},
    {"movies", false, Mode::kUpdateEdges, 0xcadc65122340d328ULL},
    {"movies", false, Mode::kUpdateLabels, 0xf609d3187ee88e54ULL},
    {"nus1", true, Mode::kCold, 0x198072b04614506aULL},
    {"nus1", true, Mode::kRefit, 0xdb799951adada52cULL},
    {"nus1", true, Mode::kUpdateEdges, 0xef28f74f741c252aULL},
    {"nus1", true, Mode::kUpdateLabels, 0x99d7bab6128c8b01ULL},
    {"nus1", false, Mode::kCold, 0x533f7a872423e1d8ULL},
    {"nus1", false, Mode::kRefit, 0x14b609ff29d0d78cULL},
    {"nus1", false, Mode::kUpdateEdges, 0xece71c3d9bbb6b37ULL},
    {"nus1", false, Mode::kUpdateLabels, 0x6d4fed9531e79cd0ULL},
    {"acm", true, Mode::kCold, 0xfd2364354557c194ULL},
    {"acm", true, Mode::kRefit, 0x833464b8f2effa4aULL},
    {"acm", true, Mode::kUpdateEdges, 0xdfb1a02b0a8cbe73ULL},
    {"acm", true, Mode::kUpdateLabels, 0xe1edc957d8425113ULL},
    {"acm", false, Mode::kCold, 0xcca22e2065bf2dd9ULL},
    {"acm", false, Mode::kRefit, 0x544de14183a77de4ULL},
    {"acm", false, Mode::kUpdateEdges, 0xef0d086e42cf57fcULL},
    {"acm", false, Mode::kUpdateLabels, 0xfb790da0c4e0a199ULL},
};

TEST(PinnedOutputsTest, FitRefitAndUpdateMatchRecordedDigests) {
  ThreadCountGuard guard;
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.preset) + (pin.ica ? " ica" : " no-ica") +
                 " mode " + std::to_string(static_cast<int>(pin.mode)));
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      parallel::SetNumThreads(threads);
      EXPECT_EQ(RunScenario(pin.preset, pin.ica, pin.mode), pin.digest);
    }
  }
}

std::uint64_t RunSeedWalks(const std::string& preset) {
  const hin::Hin hin = MakeNetwork(preset);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  serve::PanelQueryEngine engine{serve::QueryEngineOptions{}};
  std::vector<serve::SeedQueryResult> results;
  engine.Run(ops, {0, 5, 17, 42, 99, 5}, &results);
  std::uint64_t h = 1469598103934665603ULL;
  for (const serve::SeedQueryResult& r : results) {
    h = Fnv(h, r.x.data(), r.x.size() * sizeof(double));
    h = Fnv(h, r.z.data(), r.z.size() * sizeof(double));
    h = FnvValue(h, r.iterations);
    h = FnvValue(h, r.converged ? 1 : 0);
  }
  return h;
}

// Recorded from the query engine's own panel loop, before it became a
// core::PanelSolver instance.
const std::pair<const char*, std::uint64_t> kSeedWalkPins[] = {
    {"dblp", 0x643df3bc5c70a4faULL},
    {"movies", 0xeefaffd491eacefdULL},
    {"nus1", 0xa83b05b8b2d73481ULL},
    {"acm", 0xf430cb2a42e80e95ULL},
};

TEST(PinnedOutputsTest, SeedWalksMatchRecordedDigests) {
  ThreadCountGuard guard;
  for (const auto& [preset, digest] : kSeedWalkPins) {
    SCOPED_TRACE(preset);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      parallel::SetNumThreads(threads);
      EXPECT_EQ(RunSeedWalks(preset), digest);
    }
  }
}

}  // namespace
}  // namespace tmark
