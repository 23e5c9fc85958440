#include "tmark/serve/query_engine.h"

#include <numeric>

#include "tmark/common/check.h"
#include "tmark/la/panel.h"

namespace tmark::serve {

namespace {

core::PanelSolverOptions SolverOptions(const QueryEngineOptions& options) {
  core::PanelSolverOptions solver;
  solver.alpha = options.alpha;
  solver.beta = options.beta();
  solver.epsilon = options.epsilon;
  solver.max_iterations = options.max_iterations;
  solver.metric_prefix = "serve.query";
  return solver;
}

}  // namespace

PanelQueryEngine::PanelQueryEngine(QueryEngineOptions options)
    : solver_(SolverOptions(options)) {
  TMARK_CHECK_MSG(options.alpha > 0.0 && options.alpha < 1.0,
                  "alpha must lie in (0, 1)");
  TMARK_CHECK_MSG(options.gamma >= 0.0 && options.gamma <= 1.0,
                  "gamma must lie in [0, 1]");
  TMARK_CHECK(options.alpha + options.beta() <= 1.0 + 1e-12);
}

void PanelQueryEngine::Run(const core::PreparedOperators& ops,
                           const std::vector<std::size_t>& seeds,
                           std::vector<SeedQueryResult>* results) {
  TMARK_CHECK(results != nullptr);
  results->clear();
  results->resize(seeds.size());
  if (seeds.empty()) return;

  const std::size_t n = ops.num_nodes();
  const std::size_t m = ops.num_relations();
  ids_.resize(seeds.size());
  std::iota(ids_.begin(), ids_.end(), std::size_t{0});
  solver_.Reset(ops, ids_);
  la::DenseMatrix& x = solver_.x();
  la::DenseMatrix& z = solver_.z();
  la::DenseMatrix& l = solver_.restart();
  const double uniform_z = 1.0 / static_cast<double>(m);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::size_t seed = seeds[s];
    TMARK_CHECK_MSG(seed < n, "seed out of range");
    // Restart vector and starting point: all mass on the seed node.
    for (std::size_t i = 0; i < n; ++i) {
      const double e = i == seed ? 1.0 : 0.0;
      l.At(i, s) = e;
      x.At(i, s) = e;
    }
    for (std::size_t k = 0; k < m; ++k) z.At(k, s) = uniform_z;
  }

  core::PanelSolverHooks hooks;
  hooks.residual = [results](std::size_t id, double) {
    ++(*results)[id].iterations;
  };
  hooks.finish = [results](std::size_t id, const la::DenseMatrix& x_final,
                           const la::DenseMatrix& z_final, std::size_t slot,
                           bool converged) {
    SeedQueryResult& result = (*results)[id];
    result.converged = converged;
    la::ExtractColumn(x_final, slot, &result.x);
    la::ExtractColumn(z_final, slot, &result.z);
  };
  solver_.Run(hooks);
}

}  // namespace tmark::serve
