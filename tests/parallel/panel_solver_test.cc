// core::PanelSolver against an independent dense reference of the paper's
// fixed point (Eqs. 8-10, with the Eq. 12 ICA refresh), on small random
// HINs and on the degenerate ones the sparse kernels special-case: dangling
// O columns, an isolated node, one relation, one class, all-zero feature
// rows, and no features at all.
//
// The reference (fit_oracles.h) shares no kernel code with the solver.
// Both run to a tight epsilon and must agree to a small multiple of it in
// L1. The solver is checked at width 1 (one solve per class or seed) and at
// full width, which must also agree bit for bit.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/obs/metrics.h"
#include "tmark/parallel/thread_pool.h"
#include "tmark/serve/query_engine.h"

#include "fit_oracles.h"

namespace tmark {
namespace {

using testing_ref::DenseClassSolve;
using testing_ref::DenseModel;
using testing_ref::DenseRun;
using testing_ref::DenseSolve;
using testing_ref::L1;
using testing_ref::MakeDenseModel;

constexpr double kEpsilon = 1e-12;
// Each run stops with its last residual below epsilon, i.e. within
// epsilon * rate / (1 - rate) of the fixed point; the contraction rates of
// these small networks stay well below 0.9, so 100 * epsilon covers both
// runs' distance plus the rounding differences between the two codes.
constexpr double kTolerance = 100 * kEpsilon;

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::SetNumThreads(0); }
};

// ---- networks ---------------------------------------------------------------

struct Case {
  std::string name;
  hin::Hin hin;
};

hin::Hin Random(std::size_t n, std::size_t q, std::uint64_t seed) {
  datasets::SyntheticHinConfig config;
  config.num_nodes = n;
  for (std::size_t c = 0; c < q; ++c) {
    config.class_names.push_back('c' + std::to_string(c));
  }
  config.relations = {{"r0", 0.8, 0.0, 2.0, {}, false},
                      {"r1", 0.5, 0.3, 1.5, {}, true},
                      {"r2", 0.6, 0.0, 1.0, {}, false}};
  config.vocab_size = 24;
  config.seed = seed;
  return datasets::GenerateSyntheticHin(config);
}

// n nodes on `m` relations with planted features and labels i % q; the
// knobs switch on one degenerate shape each.
struct Shape {
  std::size_t n = 24;
  std::size_t m = 2;
  std::size_t q = 2;
  bool dangling = false;       ///< Relation 0 only links out of i < n / 2.
  bool isolated = false;       ///< Node n - 1 has no link in any relation.
  bool zero_rows = false;      ///< Every 4th node has no features.
  bool no_features = false;    ///< No node has features.
};

hin::Hin Build(const Shape& shape) {
  constexpr std::size_t d = 6;
  hin::HinBuilder builder(shape.n, d);
  for (std::size_t c = 0; c < shape.q; ++c) {
    builder.AddClass('c' + std::to_string(c));
  }
  for (std::size_t k = 0; k < shape.m; ++k) {
    builder.AddRelation('r' + std::to_string(k));
  }
  const std::size_t linked = shape.isolated ? shape.n - 1 : shape.n;
  for (std::size_t i = 0; i < linked; ++i) {
    const std::size_t next = (i + 1) % linked;
    const std::size_t chord = (i * 5 + 2) % linked;
    if (!shape.dangling || i < shape.n / 2) {
      builder.AddDirectedEdge(0, i, next,
                              1.0 + 0.25 * static_cast<double>(i % 3));
    }
    if (shape.m > 1 && chord != i) builder.AddUndirectedEdge(1, i, chord);
    for (std::size_t k = 2; k < shape.m; ++k) {
      builder.AddDirectedEdge(k, i, (i + k + 1) % linked, 2.0);
    }
  }
  for (std::size_t i = 0; i < shape.n; ++i) {
    builder.SetLabel(i, i % shape.q);
    if (shape.no_features || (shape.zero_rows && i % 4 == 3)) continue;
    builder.AddFeature(i, i % d, 1.0 + static_cast<double>(i % shape.q));
    builder.AddFeature(i, (i * 3 + 1) % d, 0.5);
  }
  return std::move(builder).Build();
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"random q=3", Random(40, 3, 11)});
  cases.push_back({"random q=4", Random(36, 4, 12)});
  Shape dangling;
  dangling.dangling = true;
  cases.push_back({"dangling columns", Build(dangling)});
  Shape isolated;
  isolated.isolated = true;
  cases.push_back({"isolated node", Build(isolated)});
  Shape one_relation;
  one_relation.m = 1;
  cases.push_back({"m=1", Build(one_relation)});
  Shape one_class;
  one_class.q = 1;
  one_class.m = 3;
  cases.push_back({"q=1", Build(one_class)});
  Shape zero_rows;
  zero_rows.zero_rows = true;
  zero_rows.q = 3;
  cases.push_back({"all-zero feature rows", Build(zero_rows)});
  Shape no_features;
  no_features.no_features = true;
  cases.push_back({"no features", Build(no_features)});
  return cases;
}

// Labeled nodes: all but every fifth (so each class has several).
std::vector<std::size_t> Labeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
    if (i % 5 != 4 && !hin.labels(i).empty()) labeled.push_back(i);
  }
  return labeled;
}

void ExpectOnSimplex(const la::DenseMatrix& panel, const std::string& what) {
  for (std::size_t c = 0; c < panel.cols(); ++c) {
    double sum = 0.0;
    for (std::size_t i = 0; i < panel.rows(); ++i) {
      EXPECT_GE(panel.At(i, c), 0.0) << what << " column " << c;
      sum += panel.At(i, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << what << " column " << c;
  }
}

TEST(PanelSolverTest, FitMatchesDenseReferenceAtWidthOneAndQ) {
  ThreadCountGuard guard;
  for (Case& test_case : Cases()) {
    const hin::Hin& hin = test_case.hin;
    const std::vector<std::size_t> labeled = Labeled(hin);
    const core::PreparedOperators ops =
        core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
    const DenseModel model = MakeDenseModel(hin, ops);
    const std::size_t q = hin.num_classes();
    for (const bool ica : {false, true}) {
      SCOPED_TRACE(test_case.name + (ica ? " ica" : " no-ica"));
      core::TMarkConfig config;
      config.ica_update = ica;
      config.epsilon = kEpsilon;
      config.max_iterations = 1000;

      // Width q: the classifier's one panel over every class.
      core::TMarkClassifier clf(config);
      clf.Fit(hin, labeled);
      // Width 1: the per-class schedule, one solve per class.
      la::DenseMatrix x1(hin.num_nodes(), q);
      la::DenseMatrix z1(hin.num_relations(), q);
      std::vector<core::ConvergenceTrace> traces1(q);
      for (std::size_t c = 0; c < q; ++c) {
        core::SolveTMarkClasses(config, hin, labeled, ops, {c}, nullptr,
                                nullptr, &x1, &z1, &traces1);
      }
      EXPECT_EQ(x1.data(), clf.Confidences().data());
      EXPECT_EQ(z1.data(), clf.LinkImportance().data());
      ExpectOnSimplex(clf.Confidences(), "x");
      ExpectOnSimplex(clf.LinkImportance(), "z");

      for (std::size_t c = 0; c < q; ++c) {
        SCOPED_TRACE("class " + std::to_string(c));
        const core::ConvergenceTrace& trace = clf.Traces()[c];
        ASSERT_TRUE(trace.converged);
        ASSERT_FALSE(trace.residuals.empty());
        EXPECT_LT(trace.residuals.back(), kEpsilon);
        EXPECT_EQ(traces1[c].residuals, trace.residuals);

        const DenseRun dense = DenseClassSolve(
            model, hin, labeled, c, config.alpha, config.beta(),
            config.lambda, ica, kEpsilon, 1000);
        ASSERT_TRUE(dense.converged);
        EXPECT_LE(L1(clf.Confidences().Col(c), dense.x), kTolerance);
        EXPECT_LE(L1(clf.LinkImportance().Col(c), dense.z), kTolerance);
      }
    }
  }
}

TEST(PanelSolverTest, SeedWalksMatchDenseReferenceAtWidthOneAndN) {
  ThreadCountGuard guard;
  for (Case& test_case : Cases()) {
    SCOPED_TRACE(test_case.name);
    const hin::Hin& hin = test_case.hin;
    const std::size_t n = hin.num_nodes();
    const core::PreparedOperators ops =
        core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
    const DenseModel model = MakeDenseModel(hin, ops);
    serve::QueryEngineOptions options;
    options.epsilon = kEpsilon;
    options.max_iterations = 1000;
    serve::PanelQueryEngine engine(options);
    const std::vector<std::size_t> seeds = {0, n / 2, n - 1, 3};
    std::vector<serve::SeedQueryResult> batch;
    engine.Run(ops, seeds, &batch);
    ASSERT_EQ(batch.size(), seeds.size());
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      SCOPED_TRACE("seed " + std::to_string(seeds[s]));
      std::vector<serve::SeedQueryResult> single;
      engine.Run(ops, {seeds[s]}, &single);
      EXPECT_EQ(single[0].x, batch[s].x);
      EXPECT_EQ(single[0].z, batch[s].z);
      EXPECT_EQ(single[0].iterations, batch[s].iterations);
      ASSERT_TRUE(batch[s].converged);

      la::Vector e(n, 0.0);
      e[seeds[s]] = 1.0;
      const DenseRun dense =
          DenseSolve(model, e, e, la::UniformProbability(hin.num_relations()),
                     options.alpha, options.beta(), kEpsilon, 1000);
      ASSERT_TRUE(dense.converged);
      EXPECT_LE(L1(batch[s].x, dense.x), kTolerance);
      EXPECT_LE(L1(batch[s].z, dense.z), kTolerance);
    }
  }
}

// An answer that hit max_iterations must never look like a converged one:
// the trace / result says so, and a counter records every such column.
TEST(PanelSolverTest, UnconvergedColumnsAreFlaggedAndCounted) {
  ThreadCountGuard guard;
  obs::Registry& registry = obs::Registry::Instance();
  registry.Reset();
  registry.set_enabled(true);
  const hin::Hin hin = Random(40, 3, 11);

  core::TMarkConfig config;
  config.max_iterations = 2;
  core::TMarkClassifier clf(config);
  clf.Fit(hin, Labeled(hin));
  for (const core::ConvergenceTrace& trace : clf.Traces()) {
    EXPECT_FALSE(trace.converged) << "class " << trace.class_index;
    EXPECT_EQ(trace.residuals.size(), 2u);
  }
  EXPECT_EQ(registry.GetCounter("tmark.fit.unconverged").value(),
            static_cast<std::int64_t>(hin.num_classes()));

  serve::QueryEngineOptions options;
  options.max_iterations = 2;
  serve::PanelQueryEngine engine(options);
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, hin::SimilarityKernel::kCosine);
  std::vector<serve::SeedQueryResult> results;
  engine.Run(ops, {1, 7, 20}, &results);
  for (const serve::SeedQueryResult& result : results) {
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 2u);
  }
  EXPECT_EQ(registry.GetCounter("serve.query.unconverged").value(), 3);
  // Converged runs add nothing.
  config.max_iterations = 100;
  core::TMarkClassifier converged(config);
  converged.Fit(hin, Labeled(hin));
  EXPECT_EQ(registry.GetCounter("tmark.fit.unconverged").value(),
            static_cast<std::int64_t>(hin.num_classes()));

  registry.set_enabled(false);
  registry.Reset();
}

}  // namespace
}  // namespace tmark
