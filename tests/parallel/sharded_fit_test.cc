// Bit-identity tests for the merged-view dispatch on the fixed chunk grid:
// a fit must equal the per-class schedule of width-1 solves (fit_oracles.h,
// itself held against the dense reference) bit for bit at every thread
// count, with the compact index arrays and with them forced wide. The chunk
// grid shapes work assignment only; these tests pin that contract.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/la/index_array.h"
#include "tmark/parallel/thread_pool.h"

#include "fit_oracles.h"

namespace tmark {
namespace {

// Restores every global knob the tests touch, so a failing assertion cannot
// leak a thread count or a forced-wide build into later tests.
struct KnobGuard {
  ~KnobGuard() {
    parallel::SetNumThreads(0);
    la::SetForceWideIndexArrays(false);
  }
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

std::vector<std::size_t> EveryThird(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 3) labeled.push_back(i);
  return labeled;
}

struct FitOutputs {
  la::DenseMatrix confidences;
  la::DenseMatrix link_importance;
  std::vector<core::ConvergenceTrace> traces;
};

FitOutputs RunFit(const hin::Hin& hin, const std::vector<std::size_t>& labeled,
                  const core::TMarkConfig& config, int threads) {
  parallel::SetNumThreads(threads);
  core::TMarkClassifier clf(config);
  clf.Fit(hin, labeled);
  return {clf.Confidences(), clf.LinkImportance(), clf.Traces()};
}

void ExpectBitIdentical(const FitOutputs& golden, const FitOutputs& other) {
  EXPECT_DOUBLE_EQ(golden.confidences.MaxAbsDiff(other.confidences), 0.0);
  EXPECT_DOUBLE_EQ(golden.link_importance.MaxAbsDiff(other.link_importance),
                   0.0);
  ASSERT_EQ(golden.traces.size(), other.traces.size());
  for (std::size_t c = 0; c < golden.traces.size(); ++c) {
    const core::ConvergenceTrace& g = golden.traces[c];
    const core::ConvergenceTrace& o = other.traces[c];
    EXPECT_EQ(g.converged, o.converged);
    ASSERT_EQ(g.residuals.size(), o.residuals.size()) << "class " << c;
    for (std::size_t t = 0; t < g.residuals.size(); ++t) {
      EXPECT_EQ(g.residuals[t], o.residuals[t])  // exact, not approximate
          << "class " << c << " iteration " << t;
    }
  }
}

TEST(ShardedFitTest, BitIdenticalAcrossThreadCounts) {
  KnobGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  const core::TMarkConfig config;

  // Golden: the per-class schedule, serial, within a small multiple of
  // epsilon of the dense reference.
  parallel::SetNumThreads(1);
  FitOutputs golden;
  testing_ref::PerClassSchedule(hin, labeled, config, /*warm_refit=*/false,
                                &golden.confidences, &golden.link_importance,
                                &golden.traces);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, config.similarity);
  const testing_ref::DenseModel model = testing_ref::MakeDenseModel(hin, ops);
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    const testing_ref::DenseRun dense = testing_ref::DenseClassSolve(
        model, hin, labeled, c, config.alpha, config.beta(), config.lambda,
        config.ica_update, config.epsilon, config.max_iterations);
    ASSERT_TRUE(golden.traces[c].converged && dense.converged);
    EXPECT_LE(testing_ref::L1(golden.confidences.Col(c), dense.x),
              100 * config.epsilon);
    EXPECT_LE(testing_ref::L1(golden.link_importance.Col(c), dense.z),
              100 * config.epsilon);
  }

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(golden, RunFit(hin, labeled, config, threads));
  }
}

TEST(ShardedFitTest, ForcedWideIndexArraysAreBitIdentical) {
  KnobGuard guard;
  const hin::Hin hin = MakeTestHin();
  const std::vector<std::size_t> labeled = EveryThird(hin);

  const core::TMarkConfig batched;

  const FitOutputs compact = RunFit(hin, labeled, batched, 1);
  la::SetForceWideIndexArrays(true);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectBitIdentical(compact, RunFit(hin, labeled, batched, threads));
  }
}

}  // namespace
}  // namespace tmark
