#include "tmark/hin/similarity_kernel.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/hin/feature_similarity.h"
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

TEST(SimilarityKernelTest, NamesRoundTrip) {
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    EXPECT_EQ(SimilarityKernelFromString(ToString(kernel)), kernel);
  }
}

TEST(SimilarityKernelTest, UnknownNameThrows) {
  EXPECT_THROW(SimilarityKernelFromString("euclidean"), CheckError);
}

la::SparseMatrix CountFeatures() {
  // node 0: word0 x4; node 1: word0 x1; node 2: word1 x2, word2 x2.
  return la::SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 4.0}, {1, 0, 1.0}, {2, 1, 2.0}, {2, 2, 2.0}});
}

TEST(SimilarityKernelTest, BinaryCosineIgnoresCounts) {
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(CountFeatures(), SimilarityKernel::kBinaryCosine);
  // With binarization nodes 0 and 1 are identical.
  EXPECT_NEAR(sim.Cosine(0, 1), 1.0, 1e-12);
  EXPECT_EQ(sim.kernel(), SimilarityKernel::kBinaryCosine);
}

TEST(SimilarityKernelTest, DotProductKeepsMagnitude) {
  const FeatureSimilarity sim =
      FeatureSimilarity::Build(CountFeatures(), SimilarityKernel::kDotProduct);
  // <f0, f1> = 4, <f0, f0> = 16: magnitudes matter.
  EXPECT_NEAR(sim.Cosine(0, 1), 4.0, 1e-12);
  EXPECT_NEAR(sim.Cosine(0, 0), 16.0, 1e-12);
}

TEST(SimilarityKernelTest, TfIdfDownweightsUbiquitousWords) {
  // Word 0 appears in every document (idf small); word 1 in one document.
  const la::SparseMatrix f = la::SparseMatrix::FromTriplets(
      3, 2,
      {{0, 0, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  const FeatureSimilarity tfidf =
      FeatureSimilarity::Build(f, SimilarityKernel::kTfIdfCosine);
  const FeatureSimilarity plain =
      FeatureSimilarity::Build(f, SimilarityKernel::kCosine);
  // Node 2 shares only the ubiquitous word with node 0 -> tf-idf similarity
  // drops below plain cosine.
  EXPECT_LT(tfidf.Cosine(0, 2), plain.Cosine(0, 2));
  // Nodes 0 and 1 share everything -> still 1 under both.
  EXPECT_NEAR(tfidf.Cosine(0, 1), 1.0, 1e-12);
}

TEST(SimilarityKernelTest, AllKernelsPreserveSimplex) {
  const la::SparseMatrix f = CountFeatures();
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    const FeatureSimilarity sim = FeatureSimilarity::Build(f, kernel);
    la::Vector x = la::UniformProbability(3);
    for (int step = 0; step < 3; ++step) {
      x = ApplyW(sim, x);
      EXPECT_TRUE(la::IsProbabilityVector(x, 1e-9)) << ToString(kernel);
    }
  }
}

TEST(SimilarityKernelTest, ApplyMatchesDenseForAllKernels) {
  const la::SparseMatrix f = CountFeatures();
  for (SimilarityKernel kernel :
       {SimilarityKernel::kCosine, SimilarityKernel::kBinaryCosine,
        SimilarityKernel::kTfIdfCosine, SimilarityKernel::kDotProduct}) {
    const FeatureSimilarity sim = FeatureSimilarity::Build(f, kernel);
    const la::Vector x = {0.2, 0.5, 0.3};
    const la::Vector fast = ApplyW(sim, x);
    const la::Vector slow = DenseFromSimilarities(sim).MatVec(x);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(fast[i], slow[i], 1e-10) << ToString(kernel);
    }
  }
}

}  // namespace
}  // namespace tmark::hin
