// Width-independence tests of the panel solver behind TMarkClassifier::Fit:
// the classifier's one width-q panel must equal the per-class schedule — q
// width-1 solves, one core::SolveTMarkClasses call per class — bit for bit
// (exact ==, no tolerance) across every similarity kernel, thread counts
// {1, 4}, warm starts, ICA on/off, odd class widths and iteration-capped
// (unconverged) runs. The schedule itself is held against the dense
// reference of fit_oracles.h (cosine kernel), and the default fit's
// outputs on the preset networks are pinned by pinned_outputs_test.cc.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/hin/similarity_kernel.h"
#include "tmark/parallel/thread_pool.h"

#include "fit_oracles.h"

namespace tmark {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

hin::Hin MakeTestHin() {
  datasets::SyntheticHinConfig config;
  config.num_nodes = 220;
  config.class_names = {"A", "B", "C", "D"};
  config.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                      {"r1", 0.6, 0.2, 2.0, {}, true}};
  config.seed = 99;
  return datasets::GenerateSyntheticHin(config);
}

// A HIN with exactly q classes. The synthetic generator requires q >= 2, so
// the single-class case (pure scalar-tail panel width) is built by hand:
// a ring + chords over two relations with simple planted features.
hin::Hin MakeHinWithClasses(std::size_t q) {
  if (q >= 2) {
    datasets::SyntheticHinConfig gen;
    gen.num_nodes = 150;
    for (std::size_t c = 0; c < q; ++c) {
      gen.class_names.push_back("class" + std::to_string(c));
    }
    gen.relations = {{"r0", 0.85, 0.0, 3.0, {}, false},
                     {"r1", 0.6, 0.2, 2.0, {}, true}};
    gen.seed = 400 + q;
    return datasets::GenerateSyntheticHin(gen);
  }
  constexpr std::size_t n = 60;
  constexpr std::size_t d = 12;
  hin::HinBuilder builder(n, d);
  builder.AddClass("only");
  const std::size_t r0 = builder.AddRelation("ring");
  const std::size_t r1 = builder.AddRelation("chords");
  for (std::size_t i = 0; i < n; ++i) {
    builder.AddUndirectedEdge(r0, i, (i + 1) % n);
    builder.AddDirectedEdge(r1, i, (i * 7 + 3) % n, 1.0 + (i % 3) * 0.5);
    builder.AddFeature(i, i % d, 2.0);
    builder.AddFeature(i, (i * 5 + 1) % d, 1.0);
    builder.SetLabel(i, 0);
  }
  return std::move(builder).Build();
}

std::vector<std::size_t> EveryThird(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

struct FitOutputs {
  la::DenseMatrix confidences;
  la::DenseMatrix link_importance;
  std::vector<core::ConvergenceTrace> traces;
  std::vector<std::vector<std::size_t>> rankings;
};

FitOutputs RunPerClassSchedule(const hin::Hin& hin,
                               const std::vector<std::size_t>& labeled,
                               const core::TMarkConfig& config, int threads,
                               bool warm_refit) {
  parallel::SetNumThreads(threads);
  FitOutputs out;
  testing_ref::PerClassSchedule(hin, labeled, config, warm_refit,
                                &out.confidences, &out.link_importance,
                                &out.traces);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    out.rankings.push_back(la::ArgSortDescending(out.link_importance.Col(c)));
  }
  return out;
}

// The schedule's stationary columns agree with the dense reference to a
// small multiple of epsilon (cosine kernel only: the reference assembles W
// from raw cosines).
void ExpectMatchesDenseReference(const FitOutputs& fit, const hin::Hin& hin,
                                 const std::vector<std::size_t>& labeled,
                                 const core::TMarkConfig& config) {
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  const testing_ref::DenseModel model = testing_ref::MakeDenseModel(hin, ops);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    ASSERT_TRUE(fit.traces[c].converged) << "class " << c;
    const testing_ref::DenseRun dense = testing_ref::DenseClassSolve(
        model, hin, labeled, c, config.alpha, config.beta(), config.lambda,
        config.ica_update, config.epsilon, config.max_iterations);
    ASSERT_TRUE(dense.converged) << "class " << c;
    EXPECT_LE(testing_ref::L1(fit.confidences.Col(c), dense.x),
              100 * config.epsilon)
        << "class " << c;
    EXPECT_LE(testing_ref::L1(fit.link_importance.Col(c), dense.z),
              100 * config.epsilon)
        << "class " << c;
  }
}

FitOutputs RunFit(const hin::Hin& hin, const std::vector<std::size_t>& labeled,
                  const core::TMarkConfig& config, int threads,
                  bool warm_refit) {
  parallel::SetNumThreads(threads);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  if (warm_refit) clf.Refit(hin, labeled);
  FitOutputs out{clf.Confidences(), clf.LinkImportance(), clf.Traces(), {}};
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    out.rankings.push_back(clf.RankRelationsForClass(c));
  }
  return out;
}

void ExpectBitIdentical(const FitOutputs& golden, const FitOutputs& other) {
  EXPECT_DOUBLE_EQ(golden.confidences.MaxAbsDiff(other.confidences), 0.0);
  EXPECT_DOUBLE_EQ(golden.link_importance.MaxAbsDiff(other.link_importance),
                   0.0);
  EXPECT_EQ(golden.rankings, other.rankings);
  ASSERT_EQ(golden.traces.size(), other.traces.size());
  for (std::size_t c = 0; c < golden.traces.size(); ++c) {
    const core::ConvergenceTrace& g = golden.traces[c];
    const core::ConvergenceTrace& o = other.traces[c];
    EXPECT_EQ(g.class_index, o.class_index);
    EXPECT_EQ(g.converged, o.converged);
    ASSERT_EQ(g.residuals.size(), o.residuals.size()) << "class " << c;
    for (std::size_t t = 0; t < g.residuals.size(); ++t) {
      EXPECT_EQ(g.residuals[t], o.residuals[t])  // exact, not approximate
          << "class " << c << " iteration " << t;
    }
  }
}

TEST(BatchedFitTest, MatchesPerClassAcrossKernelsAndThreadCounts) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  for (const hin::SimilarityKernel kernel :
       {hin::SimilarityKernel::kCosine, hin::SimilarityKernel::kBinaryCosine,
        hin::SimilarityKernel::kTfIdfCosine,
        hin::SimilarityKernel::kDotProduct}) {
    SCOPED_TRACE("kernel " + hin::ToString(kernel));
    core::TMarkConfig config;
    config.similarity = kernel;

    const FitOutputs golden =
        RunPerClassSchedule(hin, labeled, config, 1, false);
    if (kernel == hin::SimilarityKernel::kCosine) {
      ExpectMatchesDenseReference(golden, hin, labeled, config);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
    }
    // The per-class schedule at 4 threads must also still hit the golden
    // serial results (regression guard alongside parallel_fit_test.cc).
    ExpectBitIdentical(golden,
                       RunPerClassSchedule(hin, labeled, config, 4, false));
  }
}

TEST(BatchedFitTest, MatchesPerClassWithIcaDisabled) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig config;
  config.ica_update = false;  // TensorRrCc mode: no restart refresh.

  const FitOutputs golden = RunPerClassSchedule(hin, labeled, config, 1, false);
  ExpectMatchesDenseReference(golden, hin, labeled, config);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
  }
}

TEST(BatchedFitTest, WarmStartRefitIsBitIdentical) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);
  const core::TMarkConfig config;

  // Refit seeds every chain from the previous stationary panel; warm traces
  // are short (a handful of iterations), which exercises the early-retire
  // compaction path of the width-q panel.
  const FitOutputs golden = RunPerClassSchedule(hin, labeled, config, 1, true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, true));
  }
}

// Class counts chosen to hit every micro-kernel tail shape: q=1 (pure scalar
// tail), 2, 3 (2+1), 5 (4+1), 7 (4+2+1), and 9 (one 8-block + scalar tail).
// The blocked SIMD panel kernels must stay bit-identical to the width-1
// schedule at every width, including the odd ones.
TEST(BatchedFitTest, OddAndTailClassWidthsMatchPerClass) {
  ThreadCountGuard guard;
  for (const std::size_t q : {1u, 2u, 3u, 5u, 7u, 9u}) {
    SCOPED_TRACE("classes " + std::to_string(q));
    const hin::Hin hin = MakeHinWithClasses(q);
    const std::vector<std::size_t> labeled = EveryThird(hin);
    const core::TMarkConfig config;

    const FitOutputs golden =
        RunPerClassSchedule(hin, labeled, config, 1, false);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
    }
  }
}

TEST(BatchedFitTest, IterationCappedUnconvergedRunsMatch) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  // Cap the iterations so no class converges: every column survives to the
  // end of the panel loop and is written out by the post-loop path.
  core::TMarkConfig config;
  config.max_iterations = 4;
  config.epsilon = 1e-300;

  const FitOutputs golden = RunPerClassSchedule(hin, labeled, config, 1, false);
  for (const core::ConvergenceTrace& trace : golden.traces) {
    EXPECT_FALSE(trace.converged);
    EXPECT_EQ(trace.residuals.size(), 4u);
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads, false));
  }
}

}  // namespace
}  // namespace tmark
