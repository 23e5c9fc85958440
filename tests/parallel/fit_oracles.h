#ifndef TMARK_TESTS_PARALLEL_FIT_ORACLES_H_
#define TMARK_TESTS_PARALLEL_FIT_ORACLES_H_

// Oracles for the panel solver's tests.
//
// * A dense reference of the paper's fixed point (Eqs. 8-10, plus the
//   Eq. 12 ICA refresh) for small HINs. It shares no kernel code with the
//   solver: every product is a plain dense loop over materialized
//   operators. Two runs to the same tight epsilon stop within ~epsilon of
//   the same unique fixed point (Theorem 3), so the oracle check is an L1
//   tolerance of a small multiple of epsilon.
// * The per-class schedule: one width-1 solve per class. The panel kernels
//   are width-independent per column, so it must equal a width-q fit bit
//   for bit.

#include <cmath>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "tmark/core/prepared_operators.h"
#include "tmark/core/tmark.h"
#include "tmark/hin/hin.h"
#include "tmark/hin/label_vector.h"
#include "tmark/la/dense_matrix.h"
#include "tmark/la/vector_ops.h"

namespace tmark::testing_ref {

/// The fixed point's operators, materialized densely.
struct DenseModel {
  std::vector<la::DenseMatrix> o;  ///< m slices O(:, :, k), n x n.
  std::vector<la::DenseMatrix> r;  ///< m slices R(:, :, k), n x n.
  la::DenseMatrix w;               ///< Column-stochastic feature walk.
};

/// O and R from TransitionTensors::DenseOSlice / DenseRSlice (stored
/// entries plus the implicit dangling blocks), W assembled from the cosine
/// of `hin`'s raw feature rows (the default similarity kernel).
inline DenseModel MakeDenseModel(const hin::Hin& hin,
                                 const core::PreparedOperators& ops) {
  const std::size_t n = hin.num_nodes();
  DenseModel model;
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    model.o.push_back(ops.tensors().DenseOSlice(k));
    model.r.push_back(ops.tensors().DenseRSlice(k));
  }
  // C[i][j] = cos(f_i, f_j) from the raw rows; W = C diag(colsums)^-1 with
  // the uniform column 1/n for a node without features.
  const la::DenseMatrix f = hin.features().ToDense();
  std::vector<double> norm(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < f.cols(); ++d) {
      norm[i] += f.At(i, d) * f.At(i, d);
    }
    norm[i] = std::sqrt(norm[i]);
  }
  model.w = la::DenseMatrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t d = 0; d < f.cols(); ++d) {
        dot += f.At(i, d) * f.At(j, d);
      }
      const double c =
          norm[i] > 0.0 && norm[j] > 0.0 ? dot / (norm[i] * norm[j]) : 0.0;
      model.w.At(i, j) = c;
      col += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      model.w.At(i, j) = col > 0.0 ? model.w.At(i, j) / col
                                   : 1.0 / static_cast<double>(n);
    }
  }
  return model;
}

inline double L1(const la::Vector& a, const la::Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s;
}

inline void Normalize(la::Vector* v) {
  double s = 0.0;
  for (const double e : *v) s += e;
  for (double& e : *v) e /= s;
}

struct DenseRun {
  la::Vector x;
  la::Vector z;
  bool converged = false;
};

// Eq. (10), Eq. (8) and the simplex re-projection for one column, dense,
// until the residual drops below `epsilon`. `refresh` (optional) recomputes
// the restart vector from x at t > 2 (the Eq. 12 ICA update).
inline DenseRun DenseSolve(
    const DenseModel& model, la::Vector l, la::Vector x, la::Vector z,
    double alpha, double beta, double epsilon, int max_iterations,
    const std::function<la::Vector(const la::Vector&)>& refresh = nullptr) {
  const std::size_t n = x.size();
  const std::size_t m = z.size();
  const double rel = 1.0 - alpha - beta;
  DenseRun run;
  for (int t = 1; t <= max_iterations; ++t) {
    if (refresh && t > 2) l = refresh(x);
    la::Vector xn(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double o = 0.0;
      double w = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < m; ++k) {
          o += model.o[k].At(i, j) * x[j] * z[k];
        }
        w += model.w.At(i, j) * x[j];
      }
      xn[i] = rel * o + beta * w + alpha * l[i];
    }
    la::Vector zn(m, 0.0);
    for (std::size_t k = 0; k < m; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          zn[k] += model.r[k].At(i, j) * xn[i] * xn[j];
        }
      }
    }
    Normalize(&xn);
    Normalize(&zn);
    const double rho = L1(xn, x) + L1(zn, z);
    x = std::move(xn);
    z = std::move(zn);
    if (rho < epsilon) {
      run.converged = true;
      break;
    }
  }
  run.x = std::move(x);
  run.z = std::move(z);
  return run;
}

/// Dense stationary point of Algorithm 1 for class c of a T-Mark fit:
/// restart l_c (refreshed by the ICA rule when `ica`), starting from (l_c,
/// uniform z).
inline DenseRun DenseClassSolve(const DenseModel& model, const hin::Hin& hin,
                                const std::vector<std::size_t>& labeled,
                                std::size_t c, double alpha, double beta,
                                double lambda, bool ica, double epsilon,
                                int max_iterations) {
  const la::Vector l = hin::InitialLabelVector(hin, labeled, c);
  std::function<la::Vector(const la::Vector&)> refresh;
  if (ica) {
    refresh = [&](const la::Vector& x) {
      return hin::UpdatedLabelVector(hin, labeled, c, x, lambda);
    };
  }
  return DenseSolve(model, l, l, la::UniformProbability(hin.num_relations()),
                    alpha, beta, epsilon, max_iterations, refresh);
}

/// The per-class schedule into n x q / m x q / q outputs; with
/// `warm_refit`, a second pass of warm width-1 solves seeded from the
/// first pass's outputs (what Refit does at width q).
inline void PerClassSchedule(const hin::Hin& hin,
                             const std::vector<std::size_t>& labeled,
                             const core::TMarkConfig& config, bool warm_refit,
                             la::DenseMatrix* x, la::DenseMatrix* z,
                             std::vector<core::ConvergenceTrace>* traces) {
  const core::PreparedOperators ops =
      core::PreparedOperators::Build(hin, config.similarity);
  const std::size_t q = hin.num_classes();
  *x = la::DenseMatrix(hin.num_nodes(), q);
  *z = la::DenseMatrix(hin.num_relations(), q);
  for (int pass = 0; pass < (warm_refit ? 2 : 1); ++pass) {
    const la::DenseMatrix prev_x = *x;
    const la::DenseMatrix prev_z = *z;
    traces->assign(q, core::ConvergenceTrace{});
    for (std::size_t c = 0; c < q; ++c) {
      (*traces)[c].class_index = c;
      core::SolveTMarkClasses(config, hin, labeled, ops, {c},
                              pass > 0 ? &prev_x : nullptr,
                              pass > 0 ? &prev_z : nullptr, x, z, traces);
    }
  }
}

}  // namespace tmark::testing_ref

#endif  // TMARK_TESTS_PARALLEL_FIT_ORACLES_H_
