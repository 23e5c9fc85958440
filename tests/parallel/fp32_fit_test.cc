// Error-bound tests for the opt-in fp32 panel-storage mode
// (TMarkConfig::fp32_panels). The mode deliberately gives up bit-identity:
// the x panel is demoted to float before each tensor product, so every
// gathered element carries a relative error of at most 2^-24 while all
// accumulation stays double. These tests pin the resulting end-to-end
// deviation to a small explicit bound on the DBLP preset — from the fp64
// fit (whose outputs pinned_outputs_test.cc pins bit for bit) and from the
// dense reference of fit_oracles.h — and check the knob changes nothing it
// should not touch (rankings, determinism across thread counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/presets.h"
#include "tmark/parallel/thread_pool.h"

#include "fit_oracles.h"

namespace tmark {
namespace {

// End-to-end tolerance on stationary confidences/importances. One demotion
// is a 2^-24 (~6e-8) relative error on values <= 1; the fixed-point
// iteration is a contraction (Theorems 1-3), so the stationary deviation is
// the per-iteration injection amplified by 1/(1 - rate) — comfortably under
// 1e-5 for the preset's alpha = 0.8. A bound this tight would fail
// immediately if fp32 storage leaked into the accumulators (float
// accumulation on DBLP-sized rows loses ~1e-3).
constexpr double kFp32Bound = 1e-5;

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

hin::Hin MakeDblp() {
  datasets::PresetOptions options;
  options.num_nodes = 400;
  options.seed = 7;
  auto hin = datasets::MakePreset("dblp", options);
  EXPECT_TRUE(hin.ok()) << hin.status().ToString();
  return *std::move(hin);
}

std::vector<std::size_t> EveryThird(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

TEST(Fp32FitTest, BatchedFp32StaysWithinErrorBoundOfFp64) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeDblp();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  const core::TMarkConfig fp64;
  core::TMarkConfig fp32 = fp64;
  fp32.fp32_panels = true;

  parallel::SetNumThreads(1);
  core::TMarkClassifier golden(fp64);
  golden.Fit(hin, labeled);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    parallel::SetNumThreads(threads);
    core::TMarkClassifier clf(fp32);
    clf.Fit(hin, labeled);
    EXPECT_LE(golden.Confidences().MaxAbsDiff(clf.Confidences()), kFp32Bound);
    EXPECT_LE(golden.LinkImportance().MaxAbsDiff(clf.LinkImportance()),
              kFp32Bound);
    // A deviation this small must not reorder the link-importance ranking.
    for (std::size_t c = 0; c < hin.num_classes(); ++c) {
      EXPECT_EQ(golden.RankRelationsForClass(c), clf.RankRelationsForClass(c))
          << "class " << c;
    }
  }
}

TEST(Fp32FitTest, Fp32IsDeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;
  const hin::Hin hin = MakeDblp();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig fp32;
  fp32.fp32_panels = true;

  // fp32 trades identity with the fp64 path, not determinism: the demoted
  // panel and the accumulation grouping are both thread-count-invariant.
  parallel::SetNumThreads(1);
  core::TMarkClassifier serial(fp32);
  serial.Fit(hin, labeled);
  parallel::SetNumThreads(4);
  core::TMarkClassifier threaded(fp32);
  threaded.Fit(hin, labeled);
  EXPECT_DOUBLE_EQ(
      serial.Confidences().MaxAbsDiff(threaded.Confidences()), 0.0);
  EXPECT_DOUBLE_EQ(
      serial.LinkImportance().MaxAbsDiff(threaded.LinkImportance()), 0.0);
}

TEST(Fp32FitTest, Fp32StaysWithinErrorBoundOfDenseReference) {
  ThreadCountGuard guard;
  // The dense reference is O(m n^2) per step: a smaller DBLP network.
  datasets::PresetOptions options;
  options.num_nodes = 120;
  options.seed = 7;
  auto network = datasets::MakePreset("dblp", options);
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  const hin::Hin& hin = *network;
  const std::vector<std::size_t> labeled = EveryThird(hin);

  core::TMarkConfig fp32;
  fp32.fp32_panels = true;
  parallel::SetNumThreads(1);
  core::TMarkClassifier clf(fp32);
  clf.Fit(hin, labeled);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, fp32.similarity);
  const testing_ref::DenseModel model = testing_ref::MakeDenseModel(hin, ops);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    SCOPED_TRACE("class " + std::to_string(c));
    const testing_ref::DenseRun dense = testing_ref::DenseClassSolve(
        model, hin, labeled, c, fp32.alpha, fp32.beta(), fp32.lambda,
        fp32.ica_update, fp32.epsilon, fp32.max_iterations);
    ASSERT_TRUE(dense.converged);
    double x_dev = 0.0;
    for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
      x_dev =
          std::max(x_dev, std::abs(clf.Confidences().At(i, c) - dense.x[i]));
    }
    double z_dev = 0.0;
    for (std::size_t k = 0; k < hin.num_relations(); ++k) {
      z_dev = std::max(z_dev,
                       std::abs(clf.LinkImportance().At(k, c) - dense.z[k]));
    }
    EXPECT_LE(x_dev, kFp32Bound);
    EXPECT_LE(z_dev, kFp32Bound);
  }
}

}  // namespace
}  // namespace tmark
