#include "tmark/tensor/sparse_tensor3.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/common/random.h"
#include "tmark/la/panel.h"

namespace tmark::tensor {
namespace {

/// An n x 1 panel holding `v` (an n x 1 panel's storage is the vector).
la::DenseMatrix Column(const la::Vector& v) {
  la::DenseMatrix p(v.size(), 1);
  p.data() = v;
  return p;
}

SparseTensor3 Sample() {
  // 3 nodes, 2 relations.
  return SparseTensor3::FromEntries(3, 2,
                                    {{0, 1, 0, 1.0},
                                     {1, 0, 0, 2.0},
                                     {2, 1, 1, 3.0},
                                     {0, 2, 1, 4.0}});
}

SparseTensor3 RandomTensor(std::size_t n, std::size_t m, double density,
                           Rng* rng) {
  std::vector<TensorEntry> entries;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng->Bernoulli(density)) {
          entries.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j),
                             static_cast<std::uint32_t>(k),
                             rng->Uniform(0.1, 1.0)});
        }
      }
    }
  }
  return SparseTensor3::FromEntries(n, m, std::move(entries));
}

TEST(SparseTensor3Test, ShapeAndAccess) {
  const SparseTensor3 t = Sample();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_relations(), 2u);
  EXPECT_EQ(t.NumNonZeros(), 4u);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.At(2, 1, 1), 3.0);
  EXPECT_THROW(t.At(0, 0, 5), CheckError);
}

TEST(SparseTensor3Test, FromEntriesSumsDuplicates) {
  const SparseTensor3 t = SparseTensor3::FromEntries(
      2, 1, {{0, 1, 0, 1.0}, {0, 1, 0, 0.5}});
  EXPECT_EQ(t.NumNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(t.At(0, 1, 0), 1.5);
}

TEST(SparseTensor3Test, FromEntriesOutOfBoundsThrows) {
  EXPECT_THROW(SparseTensor3::FromEntries(2, 1, {{0, 0, 1, 1.0}}),
               CheckError);
}

TEST(SparseTensor3Test, EntriesRoundTrip) {
  const SparseTensor3 t = Sample();
  const SparseTensor3 rebuilt =
      SparseTensor3::FromEntries(3, 2, t.Entries());
  EXPECT_EQ(rebuilt.NumNonZeros(), t.NumNonZeros());
  for (const TensorEntry& e : t.Entries()) {
    EXPECT_DOUBLE_EQ(rebuilt.At(e.i, e.j, e.k), e.value);
  }
}

TEST(SparseTensor3Test, FromSlicesChecksShapes) {
  la::SparseMatrix a(2, 2), b(3, 3);
  EXPECT_THROW(SparseTensor3::FromSlices({a, b}), CheckError);
}

TEST(SparseTensor3Test, SumOverRelations) {
  const SparseTensor3 t = SparseTensor3::FromEntries(
      2, 2, {{0, 1, 0, 1.0}, {0, 1, 1, 2.0}, {1, 0, 1, 4.0}});
  const la::SparseMatrix sum = t.SumOverRelations();
  EXPECT_DOUBLE_EQ(sum.At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(sum.At(1, 0), 4.0);
}

TEST(SparseTensor3Test, IsNonNegative) {
  EXPECT_TRUE(Sample().IsNonNegative());
  const SparseTensor3 neg =
      SparseTensor3::FromEntries(2, 1, {{0, 1, 0, -1.0}});
  EXPECT_FALSE(neg.IsNonNegative());
}

TEST(SparseTensor3Test, ConnectivityDetectsComponents) {
  // Two disconnected pairs.
  const SparseTensor3 split = SparseTensor3::FromEntries(
      4, 1, {{0, 1, 0, 1.0}, {1, 0, 0, 1.0}, {2, 3, 0, 1.0}, {3, 2, 0, 1.0}});
  EXPECT_FALSE(split.IsConnectedAggregate());
  // Bridge them (even one-directional counts as weakly connected).
  const SparseTensor3 joined = SparseTensor3::FromEntries(
      4, 1, {{0, 1, 0, 1.0}, {1, 2, 0, 1.0}, {2, 3, 0, 1.0}});
  EXPECT_TRUE(joined.IsConnectedAggregate());
}

TEST(SparseTensor3Test, ContractMode1MatchesBruteForce) {
  Rng rng(3);
  const SparseTensor3 t = RandomTensor(7, 3, 0.3, &rng);
  la::Vector x(7), z(3);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  for (double& v : z) v = rng.Uniform(0.0, 1.0);
  la::DenseMatrix y(7, 1);
  la::PanelWorkspace ws;
  t.ContractMode1Panel(Column(x), Column(z), 1, &y, &ws);
  for (std::size_t i = 0; i < 7; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 7; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        expect += t.At(i, j, k) * x[j] * z[k];
      }
    }
    EXPECT_NEAR(y.At(i, 0), expect, 1e-12);
  }
}

TEST(SparseTensor3Test, ContractMode3MatchesBruteForce) {
  Rng rng(4);
  const SparseTensor3 t = RandomTensor(6, 4, 0.3, &rng);
  la::Vector x(6), y(6);
  for (double& v : x) v = rng.Uniform(0.0, 1.0);
  for (double& v : y) v = rng.Uniform(0.0, 1.0);
  la::DenseMatrix w(4, 1);
  la::PanelWorkspace ws;
  t.ContractMode3Panel(Column(x), Column(y), 1, &w, &ws);
  for (std::size_t k = 0; k < 4; ++k) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 6; ++j) {
        expect += t.At(i, j, k) * x[i] * y[j];
      }
    }
    EXPECT_NEAR(w.At(k, 0), expect, 1e-12);
  }
}

TEST(SparseTensor3Test, ContractionSizeChecks) {
  const SparseTensor3 t = Sample();
  la::DenseMatrix y(3, 1);
  la::DenseMatrix w(2, 1);
  la::PanelWorkspace ws;
  const la::DenseMatrix two(2, 1);
  const la::DenseMatrix three(3, 1);
  EXPECT_THROW(t.ContractMode1Panel(two, two, 1, &y, &ws), CheckError);
  EXPECT_THROW(t.ContractMode3Panel(three, two, 1, &w, &ws), CheckError);
}

}  // namespace
}  // namespace tmark::tensor
