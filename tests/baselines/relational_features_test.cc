#include "tmark/baselines/relational_features.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/hin/hin_builder.h"

namespace tmark::baselines {
namespace {

hin::Hin SmallHin() {
  hin::HinBuilder b(3, 2);
  b.AddClass("A");
  b.AddClass("B");
  const std::size_t r0 = b.AddRelation("big");
  const std::size_t r1 = b.AddRelation("small");
  b.AddUndirectedEdge(r0, 0, 1);
  b.AddUndirectedEdge(r0, 1, 2);
  b.AddUndirectedEdge(r1, 0, 2);
  b.SetLabel(0, 0);
  b.SetLabel(1, 1);
  b.SetLabel(2, 1);
  b.AddFeature(0, 0, 3.0);
  b.AddFeature(0, 1, 4.0);
  b.AddFeature(1, 1, 2.0);
  return std::move(b).Build();
}

TEST(ContentFeaturesTest, RowsAreUnitL2) {
  const la::DenseMatrix f = ContentFeatures(SmallHin());
  EXPECT_NEAR(f.At(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(f.At(0, 1), 0.8, 1e-12);
  EXPECT_NEAR(f.At(1, 1), 1.0, 1e-12);
  // All-zero rows stay zero.
  EXPECT_DOUBLE_EQ(f.At(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(f.At(2, 1), 0.0);
}

TEST(NeighborLabelDistributionTest, AggregatesAndNormalizes) {
  const hin::Hin hin = SmallHin();
  la::DenseMatrix probs(3, 2);
  probs.At(0, 0) = 1.0;               // node 0 -> class A
  probs.At(1, 1) = 1.0;               // node 1 -> class B
  probs.At(2, 0) = probs.At(2, 1) = 0.5;
  const la::DenseMatrix rel =
      NeighborLabelDistribution(hin.relation(0), probs);
  // Node 0's only "big" neighbor is 1 (class B).
  EXPECT_DOUBLE_EQ(rel.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rel.At(0, 1), 1.0);
  // Node 1 has neighbors 0 (A) and 2 (half/half) -> (0.75, 0.25) normalized.
  EXPECT_DOUBLE_EQ(rel.At(1, 0), 0.75);
  EXPECT_DOUBLE_EQ(rel.At(1, 1), 0.25);
}

TEST(NeighborLabelDistributionTest, IsolatedNodeGetsZeros) {
  const la::SparseMatrix empty(2, 2);
  la::DenseMatrix probs(2, 2, 0.5);
  const la::DenseMatrix rel = NeighborLabelDistribution(empty, probs);
  EXPECT_DOUBLE_EQ(rel.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(rel.At(1, 1), 0.0);
}

TEST(ConcatColumnsTest, StacksBlocks) {
  const la::DenseMatrix a = la::DenseMatrix::FromRows({{1.0}, {2.0}});
  const la::DenseMatrix b =
      la::DenseMatrix::FromRows({{3.0, 4.0}, {5.0, 6.0}});
  const la::DenseMatrix cat = ConcatColumns({&a, &b});
  EXPECT_EQ(cat.cols(), 3u);
  EXPECT_DOUBLE_EQ(cat.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(cat.At(1, 2), 6.0);
}

TEST(ConcatColumnsTest, HeightMismatchThrows) {
  const la::DenseMatrix a(2, 1);
  const la::DenseMatrix b(3, 1);
  EXPECT_THROW(ConcatColumns({&a, &b}), CheckError);
}

TEST(LabeledOneHotTest, OnlyLabeledRowsSet) {
  const hin::Hin hin = SmallHin();
  const la::DenseMatrix oh = LabeledOneHot(hin, {0, 2});
  EXPECT_DOUBLE_EQ(oh.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(oh.At(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(oh.At(1, 0) + oh.At(1, 1), 0.0);  // not in labeled set
}

TEST(SelectRelationChannelsTest, SmallHinKeepsAll) {
  const hin::Hin hin = SmallHin();
  const auto channels = SelectRelationChannels(hin, 5);
  EXPECT_EQ(channels.size(), 2u);
}

TEST(SelectRelationChannelsTest, LargeHinPoolsTail) {
  hin::HinBuilder b(10, 1);
  b.AddClass("A");
  for (int k = 0; k < 5; ++k) {
    const std::size_t rk = b.AddRelation('r' + std::to_string(k));
    // Relation k gets k+1 distinct edges so the ordering is deterministic.
    for (int e = 0; e <= k; ++e) {
      b.AddDirectedEdge(rk, static_cast<std::size_t>(e),
                        static_cast<std::size_t>((e + k + 1) % 10));
    }
  }
  const hin::Hin hin = std::move(b).Build();
  const auto channels = SelectRelationChannels(hin, 3);
  ASSERT_EQ(channels.size(), 3u);
  // The two largest relations (5 and 4 edges) come first; the pooled rest
  // carries 1 + 2 + 3 = 6 edge records.
  EXPECT_EQ(channels[0].NumNonZeros(), 5u);
  EXPECT_EQ(channels[1].NumNonZeros(), 4u);
  double pooled = 0.0;
  for (double v : channels[2].values()) pooled += v;
  EXPECT_DOUBLE_EQ(pooled, 6.0);
}

}  // namespace
}  // namespace tmark::baselines
