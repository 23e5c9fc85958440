#include "tmark/core/panel_solver.h"

#include <algorithm>
#include <utility>

#include "tmark/common/check.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::core {

PanelSolver::PanelSolver(PanelSolverOptions options)
    : options_(std::move(options)),
      iterations_counter_(options_.metric_prefix + ".iterations"),
      unconverged_counter_(options_.metric_prefix + ".unconverged") {}

void PanelSolver::Reset(const PreparedOperators& ops,
                        const std::vector<std::size_t>& ids) {
  ops_ = &ops;
  ids_.assign(ids.begin(), ids.end());
  const std::size_t n = ops.num_nodes();
  const std::size_t m = ops.num_relations();
  const std::size_t width = ids.size();
  if (x_.rows() != n || x_.cols() < width) {
    const std::size_t cols = std::max(width, x_.cols());
    x_ = la::DenseMatrix(n, cols);
    l_ = la::DenseMatrix(n, cols);
    x_next_ = la::DenseMatrix(n, cols);
    wx_ = la::DenseMatrix(n, cols);
  }
  if (z_.rows() != m || z_.cols() != x_.cols()) {
    z_ = la::DenseMatrix(m, x_.cols());
    z_next_ = la::DenseMatrix(m, x_.cols());
  }
}

std::size_t PanelSolver::Run(const PanelSolverHooks& hooks) {
  TMARK_CHECK_MSG(ops_ != nullptr, "PanelSolver::Run before Reset");
  TMARK_CHECK(hooks.residual && hooks.finish);
  const tensor::TransitionTensors& tensors = ops_->tensors();
  const hin::FeatureSimilarity& similarity = ops_->similarity();
  const double alpha = options_.alpha;
  const double beta = options_.beta;
  const double rel_weight = 1.0 - alpha - beta;
  // Hoisted out of the loop: the phase timers branch on this bool instead
  // of re-reading the registry's atomic.
  const bool timed = options_.phase_timers && obs::MetricsEnabled();

  std::size_t width = ids_.size();
  std::size_t iterations = 0;
  for (int t = 1; t <= options_.max_iterations && width > 0; ++t) {
    if (hooks.refresh) hooks.refresh(t, width, ids_, x_, &l_);
    {
      obs::ScopedTimer phase("tmark.fit.phase.tensor_product_ms", timed);
      tensors.ApplyOPanel(x_, z_, width, &x_next_, &ws_);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.feature_walk_ms", timed);
      similarity.ApplyPanel(x_, width, &wx_, &ws_);
      // Fused combine: x' = rel*Ox + beta*Wx + alpha*L plus its column
      // sums in one panel sweep.
      la::FusedCombineColumns(rel_weight, beta, wx_, alpha, l_, width,
                              &x_next_, &x_sums_);
    }
    {
      obs::ScopedTimer phase("tmark.fit.phase.z_update_ms", timed);
      // ApplyRPanel consumes the unnormalized x' with its column sums and
      // hands back z''s from the final correction sweep.
      tensors.ApplyRPanel(x_next_, x_next_, width, &z_next_, &ws_, &x_sums_,
                          &x_sums_, &z_sums_);
      // Simplex re-projection guards against the cubic amplification of
      // rounding error through the z = (sum x)^2 coupling (see MultiRank).
      // Fused normalize + residual: one sweep each for x and z.
      la::FusedNormalizeDistanceColumns(&x_sums_, x_, width, &x_next_,
                                        &rho_x_);
      la::FusedNormalizeDistanceColumns(&z_sums_, z_, width, &z_next_,
                                        &rho_z_);
    }
    std::swap(x_, x_next_);
    std::swap(z_, z_next_);
    ++iterations;
    obs::IncrCounter(iterations_counter_, static_cast<std::int64_t>(width));

    // Report residuals and retire converged columns. When slot s retires,
    // the last active column moves into it (with its residuals) and the
    // slot is re-processed, so every active column is handled exactly once.
    std::size_t s = 0;
    while (s < width) {
      const double rho = rho_x_[s] + rho_z_[s];
      hooks.residual(ids_[s], rho);
      if (rho < options_.epsilon) {
        hooks.finish(ids_[s], x_, z_, s, true);
        const std::size_t last = width - 1;
        if (s != last) {
          la::MoveColumn(last, s, &x_);
          la::MoveColumn(last, s, &z_);
          la::MoveColumn(last, s, &l_);
          ids_[s] = ids_[last];
          rho_x_[s] = rho_x_[last];
          rho_z_[s] = rho_z_[last];
        }
        --width;
      } else {
        ++s;
      }
    }
  }

  // Columns still active hit the iteration cap: hand back their last state,
  // flagged unconverged, and count them so they never pass for converged.
  for (std::size_t s = 0; s < width; ++s) {
    hooks.finish(ids_[s], x_, z_, s, false);
  }
  if (width > 0) {
    obs::IncrCounter(unconverged_counter_, static_cast<std::int64_t>(width));
  }
  return iterations;
}

}  // namespace tmark::core
