#include "tmark/hin/feature_similarity.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::hin {
namespace {

/// W x through the panel kernel at width 1 (the vector case).
la::Vector ApplyW(const FeatureSimilarity& sim, const la::Vector& x) {
  la::DenseMatrix xp(x.size(), 1);
  xp.data() = x;
  la::DenseMatrix y(x.size(), 1);
  la::PanelWorkspace ws;
  sim.ApplyPanel(xp, 1, &y, &ws);
  return y.data();
}

/// W assembled entry by entry from the pairwise similarities, independent
/// of the factorized kernel: W[i][j] = C[i][j] / sum_i C[i][j], with the
/// uniform column 1/n for a dangling (all-zero-feature) node j.
la::DenseMatrix DenseFromSimilarities(const FeatureSimilarity& sim) {
  const std::size_t n = sim.num_nodes();
  la::DenseMatrix w(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) col += sim.Cosine(i, j);
    for (std::size_t i = 0; i < n; ++i) {
      w.At(i, j) = col > 0.0 ? sim.Cosine(i, j) / col
                             : 1.0 / static_cast<double>(n);
    }
  }
  return w;
}

la::SparseMatrix RandomFeatures(std::size_t n, std::size_t d, double density,
                                Rng* rng) {
  std::vector<la::Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      if (rng->Bernoulli(density)) {
        trips.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         rng->Uniform(0.1, 3.0)});
      }
    }
  }
  return la::SparseMatrix::FromTriplets(n, d, std::move(trips));
}

TEST(FeatureSimilarityTest, CosineOfIdenticalRowsIsOne) {
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 0, 4.0}, {1, 2, 2.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(sim.Cosine(0, 0), 1.0, 1e-12);
}

TEST(FeatureSimilarityTest, CosineOfOrthogonalRowsIsZero) {
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 5.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_DOUBLE_EQ(sim.Cosine(0, 1), 0.0);
}

TEST(FeatureSimilarityTest, CosineMatchesClosedForm) {
  // f0 = (1, 1), f1 = (1, 0) -> cos = 1/sqrt(2).
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(FeatureSimilarityTest, DenseColumnsAreStochastic) {
  Rng rng(5);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(9, 6, 0.5, &rng));
  const la::DenseMatrix w = sim.Dense();
  const la::Vector sums = w.ColumnSums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(FeatureSimilarityTest, ApplyMatchesDense) {
  Rng rng(6);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(11, 7, 0.4, &rng));
  la::Vector x(11);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  const la::Vector fast = ApplyW(sim, x);
  const la::Vector slow = DenseFromSimilarities(sim).MatVec(x);
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-10);
  }
}

TEST(FeatureSimilarityTest, ApplyPreservesSimplex) {
  Rng rng(7);
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(RandomFeatures(15, 8, 0.3, &rng));
  la::Vector x = la::UniformProbability(15);
  for (int step = 0; step < 4; ++step) {
    x = ApplyW(sim, x);
    EXPECT_TRUE(la::IsProbabilityVector(x, 1e-9));
  }
}

TEST(FeatureSimilarityTest, ZeroFeatureNodeIsDanglingUniform) {
  // Node 2 has no features.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      3, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  const FeatureSimilarity sim = FeatureSimilarity::Build(f);
  ASSERT_EQ(sim.dangling_nodes().size(), 1u);
  EXPECT_EQ(sim.dangling_nodes()[0], 2u);
  // All of node 2's mass is spread uniformly.
  la::Vector e(3, 0.0);
  e[2] = 1.0;
  const la::Vector y = ApplyW(sim, e);
  for (double v : y) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
}

TEST(FeatureSimilarityTest, MatchesPaperExampleW) {
  // Sec. 4.3's W for the 4-node example: node pairs (p1, p4) and (p2, p3)
  // are identical, cross pairs orthogonal -> each column is 0.5 on the pair.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      4, 2, {{0, 0, 1.0}, {3, 0, 1.0}, {1, 1, 1.0}, {2, 1, 1.0}});
  const la::DenseMatrix w = FeatureSimilarity::Build(f).Dense();
  const la::DenseMatrix expected = la::DenseMatrix::FromRows({
      {0.5, 0.0, 0.0, 0.5},
      {0.0, 0.5, 0.5, 0.0},
      {0.0, 0.5, 0.5, 0.0},
      {0.5, 0.0, 0.0, 0.5},
  });
  EXPECT_LT(w.MaxAbsDiff(expected), 1e-12);
}

TEST(FeatureSimilarityTest, RejectsNegativeFeatures) {
  const la::SparseMatrix f =
      la::SparseMatrix::FromTriplets(1, 1, {{0, 0, -1.0}});
  EXPECT_THROW(FeatureSimilarity::Build(f), CheckError);
}

}  // namespace
}  // namespace tmark::hin
