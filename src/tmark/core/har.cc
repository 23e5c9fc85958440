#include "tmark/core/har.h"

#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/panel.h"
#include "tmark/tensor/transition_tensors.h"

namespace tmark::core {
namespace {

/// Per-slice transpose: entry (i, j, k) -> (j, i, k). The destination-
/// normalized tensor of the transpose is exactly the source-normalized
/// tensor H of the original.
tensor::SparseTensor3 TransposeSlices(const tensor::SparseTensor3& a) {
  std::vector<la::SparseMatrix> slices;
  slices.reserve(a.num_relations());
  for (std::size_t k = 0; k < a.num_relations(); ++k) {
    slices.push_back(a.Slice(k).Transpose());
  }
  return tensor::SparseTensor3::FromSlices(std::move(slices));
}

}  // namespace

HarResult HarRank(const tensor::SparseTensor3& adjacency,
                  const HarConfig& config) {
  const std::size_t n = adjacency.num_nodes();
  const std::size_t m = adjacency.num_relations();
  TMARK_CHECK(n > 0 && m > 0);
  TMARK_CHECK(config.alpha >= 0.0 && config.alpha < 1.0);
  TMARK_CHECK(config.beta >= 0.0 && config.beta < 1.0);
  TMARK_CHECK(config.gamma >= 0.0 && config.gamma < 1.0);

  const tensor::TransitionTensors fwd =
      tensor::TransitionTensors::Build(adjacency);
  const tensor::TransitionTensors bwd =
      tensor::TransitionTensors::Build(TransposeSlices(adjacency));

  // Width-1 panels: the vector case of the panel kernels. An n x 1 panel's
  // storage is the column vector itself, so the vector ops apply directly.
  const la::Vector x0 = la::UniformProbability(n);
  const la::Vector y0 = la::UniformProbability(n);
  const la::Vector z0 = la::UniformProbability(m);
  la::DenseMatrix x(n, 1), y(n, 1), z(m, 1);
  x.data() = x0;
  y.data() = y0;
  z.data() = z0;
  la::DenseMatrix x_next(n, 1), y_next(n, 1), z_next(m, 1);
  la::PanelWorkspace ws;

  HarResult result;
  for (int t = 0; t < config.max_iterations; ++t) {
    // Authority from hubs, hubs from authorities, relevance from both.
    fwd.ApplyOPanel(y, z, 1, &x_next, &ws);
    la::Scale(1.0 - config.alpha, &x_next.data());
    la::Axpy(config.alpha, x0, &x_next.data());

    bwd.ApplyOPanel(x_next, z, 1, &y_next, &ws);
    la::Scale(1.0 - config.beta, &y_next.data());
    la::Axpy(config.beta, y0, &y_next.data());

    fwd.ApplyRPanel(x_next, y_next, 1, &z_next, &ws);
    la::Scale(1.0 - config.gamma, &z_next.data());
    la::Axpy(config.gamma, z0, &z_next.data());

    la::NormalizeL1(&x_next.data());
    la::NormalizeL1(&y_next.data());
    la::NormalizeL1(&z_next.data());

    const double rho = la::L1Distance(x_next.data(), x.data()) +
                       la::L1Distance(y_next.data(), y.data()) +
                       la::L1Distance(z_next.data(), z.data());
    result.residuals.push_back(rho);
    std::swap(x, x_next);
    std::swap(y, y_next);
    std::swap(z, z_next);
    if (rho < config.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.authority = std::move(x.data());
  result.hub = std::move(y.data());
  result.relevance = std::move(z.data());
  return result;
}

}  // namespace tmark::core
