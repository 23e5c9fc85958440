#include "tmark/core/multirank.h"

#include <utility>

#include "tmark/common/check.h"
#include "tmark/la/panel.h"

namespace tmark::core {

MultiRankResult MultiRank(const tensor::TransitionTensors& tensors,
                          const MultiRankConfig& config) {
  const std::size_t n = tensors.num_nodes();
  const std::size_t m = tensors.num_relations();
  TMARK_CHECK(n > 0 && m > 0);
  MultiRankResult result;
  // Width-1 panels: the vector case of the panel kernels. An n x 1 panel's
  // storage is the column vector itself, so the vector ops apply directly.
  la::DenseMatrix x(n, 1, 1.0 / static_cast<double>(n));
  la::DenseMatrix z(m, 1, 1.0 / static_cast<double>(m));
  la::DenseMatrix x_next(n, 1);
  la::DenseMatrix z_next(m, 1);
  la::PanelWorkspace ws;
  for (int t = 0; t < config.max_iterations; ++t) {
    tensors.ApplyOPanel(x, z, 1, &x_next, &ws);
    tensors.ApplyRPanel(x_next, x_next, 1, &z_next, &ws);
    // Re-project onto the simplex: the updates preserve the sums exactly in
    // real arithmetic, but the z = (sum x)^2 coupling amplifies rounding
    // error cubically per iteration if left uncorrected.
    la::NormalizeL1(&x_next.data());
    la::NormalizeL1(&z_next.data());
    const double rho = la::L1Distance(x_next.data(), x.data()) +
                       la::L1Distance(z_next.data(), z.data());
    result.residuals.push_back(rho);
    std::swap(x, x_next);
    std::swap(z, z_next);
    if (rho < config.epsilon) {
      result.converged = true;
      break;
    }
  }
  result.node_scores = std::move(x.data());
  result.relation_scores = std::move(z.data());
  return result;
}

MultiRankResult MultiRank(const tensor::SparseTensor3& adjacency,
                          const MultiRankConfig& config) {
  return MultiRank(tensor::TransitionTensors::Build(adjacency), config);
}

}  // namespace tmark::core
