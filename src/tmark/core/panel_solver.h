#ifndef TMARK_CORE_PANEL_SOLVER_H_
#define TMARK_CORE_PANEL_SOLVER_H_

// The one panel fixed-point loop of Algorithm 1 (paper Eqs. 8-10).
//
// Every caller that iterates the T-Mark fixed point runs it here: the fit
// (TMarkClassifier::Fit / Refit / Update, one column per class, restart l_c
// with the ICA refresh) and the serving query engine (one column per seed,
// restart e_seed). Each iteration advances the leading `width` columns of
// row-major n x width panels with one structure pass per kernel:
//
//   x' = (1 - alpha - beta) * (O x1 x x3 z) + beta * W x + alpha * l  (Eq. 10)
//   z' = R x1 x' x2 x'                                                (Eq. 8)
//
// followed by the L1 re-projection of both onto the simplex and the
// per-column residual rho = |x' - x|_1 + |z' - z|_1. A column whose
// residual drops below epsilon retires by compaction (the last active
// column moves into its slot); surviving columns are untouched, so a
// column's answer does not depend on which panel it shared or at which
// width it ran (la/panel.h: every panel kernel performs, per column, the
// operations of the width-1 case in the same order). Width 1 is the
// vector case.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/panel.h"
#include "tmark/la/vector_ops.h"

namespace tmark::core {

/// Coefficients and instrumentation of one solver instance.
struct PanelSolverOptions {
  double alpha = 0.8;    ///< Restart weight.
  double beta = 0.12;    ///< Feature-walk weight gamma * (1 - alpha).
  double epsilon = 1e-8;
  int max_iterations = 100;
  /// Counters "<prefix>.iterations" (column-iterations) and
  /// "<prefix>.unconverged" (columns that hit max_iterations).
  std::string metric_prefix = "tmark.fit";
  /// Times each phase into the tmark.fit.phase.* histograms.
  bool phase_timers = false;
};

/// Caller callbacks of one Run; slot s of the panels carries column ids[s].
struct PanelSolverHooks {
  /// Optional restart refresh at the top of iteration t (1-based), before
  /// the products: may rewrite the leading `width` columns of `restart`.
  std::function<void(int t, std::size_t width,
                     const std::vector<std::size_t>& ids,
                     const la::DenseMatrix& x, la::DenseMatrix* restart)>
      refresh;
  /// Required: each active column's residual, once per iteration.
  std::function<void(std::size_t id, double rho)> residual;
  /// Required: once per column, when it converges or hits max_iterations;
  /// column `slot` of `x` / `z` holds its final state.
  std::function<void(std::size_t id, const la::DenseMatrix& x,
                     const la::DenseMatrix& z, std::size_t slot,
                     bool converged)>
      finish;
};

/// Runs the fixed point on panels whose capacity is kept across runs. Not
/// thread-safe; the kernels it calls are internally parallel.
class PanelSolver {
 public:
  explicit PanelSolver(PanelSolverOptions options);

  /// Starts a run on `ops` (which must outlive the Run) at width
  /// ids.size(), slot s carrying ids[s]. The caller then fills the leading
  /// columns of x(), z() and restart().
  void Reset(const PreparedOperators& ops,
             const std::vector<std::size_t>& ids);

  la::DenseMatrix& x() { return x_; }
  la::DenseMatrix& z() { return z_; }
  la::DenseMatrix& restart() { return l_; }

  /// Iterates until every column has finished; returns the number of panel
  /// iterations run.
  std::size_t Run(const PanelSolverHooks& hooks);

 private:
  PanelSolverOptions options_;
  std::string iterations_counter_;
  std::string unconverged_counter_;
  const PreparedOperators* ops_ = nullptr;
  std::vector<std::size_t> ids_;
  la::PanelWorkspace ws_;
  la::DenseMatrix x_;
  la::DenseMatrix z_;
  la::DenseMatrix l_;
  la::DenseMatrix x_next_;
  la::DenseMatrix z_next_;
  la::DenseMatrix wx_;
  la::Vector rho_x_;
  la::Vector rho_z_;
  la::Vector x_sums_;
  la::Vector z_sums_;
};

}  // namespace tmark::core

#endif  // TMARK_CORE_PANEL_SOLVER_H_
