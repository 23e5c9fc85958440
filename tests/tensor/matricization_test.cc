#include "tmark/tensor/matricization.h"

#include <gtest/gtest.h>

#include "tmark/common/random.h"
#include "tmark/datasets/paper_example.h"

namespace tmark::tensor {
namespace {

TEST(MatricizationTest, Mode1ShapeMatchesPaperExample) {
  // Sec. 3.2: the 4-node, 3-relation bibliography HIN has A_(1) of size
  // 4 x 12 and A_(3) of size 3 x 16.
  const SparseTensor3 a =
      datasets::MakePaperExample().ToAdjacencyTensor();
  const la::SparseMatrix a1 = MatricizeMode1(a);
  EXPECT_EQ(a1.rows(), 4u);
  EXPECT_EQ(a1.cols(), 12u);
  const la::SparseMatrix a3 = MatricizeMode3(a);
  EXPECT_EQ(a3.rows(), 3u);
  EXPECT_EQ(a3.cols(), 16u);
}

TEST(MatricizationTest, Mode1ColumnLayout) {
  // Entry (i, j, k) lands at column j + k*n in A_(1).
  const SparseTensor3 a =
      SparseTensor3::FromEntries(3, 2, {{1, 2, 1, 5.0}});
  const la::SparseMatrix a1 = MatricizeMode1(a);
  EXPECT_DOUBLE_EQ(a1.At(1, 2 + 1 * 3), 5.0);
  EXPECT_EQ(a1.NumNonZeros(), 1u);
}

TEST(MatricizationTest, Mode3ColumnLayout) {
  // Entry (i, j, k) lands at row k, column i + j*n in A_(3).
  const SparseTensor3 a =
      SparseTensor3::FromEntries(3, 2, {{1, 2, 1, 5.0}});
  const la::SparseMatrix a3 = MatricizeMode3(a);
  EXPECT_DOUBLE_EQ(a3.At(1, 1 + 2 * 3), 5.0);
  EXPECT_EQ(a3.NumNonZeros(), 1u);
}

TEST(MatricizationTest, Mode1ColumnNormalizationEqualsEq1) {
  // Normalizing columns of A_(1) performs the node-normalization of Eq. (1):
  // check on the paper example that each non-empty column sums to one.
  const SparseTensor3 a =
      datasets::MakePaperExample().ToAdjacencyTensor();
  std::vector<bool> dangling;
  const la::SparseMatrix o1 =
      MatricizeMode1(a).NormalizeColumnsSparse(&dangling);
  const la::Vector colsums = o1.ColumnSums();
  for (std::size_t c = 0; c < o1.cols(); ++c) {
    if (!dangling[c]) {
      EXPECT_NEAR(colsums[c], 1.0, 1e-12);
    }
  }
}

TEST(MatricizationTest, FoldInvertsUnfold) {
  Rng rng(21);
  std::vector<TensorEntry> entries;
  for (int e = 0; e < 40; ++e) {
    entries.push_back({static_cast<std::uint32_t>(rng.UniformInt(6)),
                       static_cast<std::uint32_t>(rng.UniformInt(6)),
                       static_cast<std::uint32_t>(rng.UniformInt(4)),
                       rng.Uniform(0.1, 1.0)});
  }
  const SparseTensor3 a = SparseTensor3::FromEntries(6, 4, entries);
  const SparseTensor3 back = FoldMode1(MatricizeMode1(a), 6, 4);
  EXPECT_EQ(back.NumNonZeros(), a.NumNonZeros());
  for (const TensorEntry& e : a.Entries()) {
    EXPECT_DOUBLE_EQ(back.At(e.i, e.j, e.k), e.value);
  }
}

TEST(MatricizationTest, NonZeroCountsPreserved) {
  const SparseTensor3 a =
      datasets::MakePaperExample().ToAdjacencyTensor();
  EXPECT_EQ(MatricizeMode1(a).NumNonZeros(), a.NumNonZeros());
  EXPECT_EQ(MatricizeMode3(a).NumNonZeros(), a.NumNonZeros());
}

}  // namespace
}  // namespace tmark::tensor
