#include "tmark/core/model_io.h"

#include <fstream>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "tmark/common/line_reader.h"
#include "tmark/common/strict_parse.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::core {
namespace {

constexpr char kHeader[] = "# tmark-model v1";

using obs::CountIoError;

/// Cap on the total stored elements (n*q + m*q) a model file may declare:
/// bounds the allocation a hostile `shape` line can trigger to ~512 MB.
constexpr std::size_t kMaxModelElements = std::size_t{1} << 26;

}  // namespace

void SaveTMarkModel(const TMarkClassifier& classifier, std::ostream& out) {
  const la::DenseMatrix& conf = classifier.Confidences();  // checks fitted
  const la::DenseMatrix& link = classifier.LinkImportance();
  const TMarkConfig& config = classifier.config();
  LineWriter w(out);
  w << kHeader << '\n';
  w << "alpha " << config.alpha << '\n';
  w << "gamma " << config.gamma << '\n';
  w << "lambda " << config.lambda << '\n';
  w << "ica " << (config.ica_update ? 1 : 0) << '\n';
  w << "kernel " << hin::ToString(config.similarity) << '\n';
  w << "shape " << conf.rows() << ' ' << link.rows() << ' ' << conf.cols()
    << '\n';
  for (std::size_t i = 0; i < conf.rows(); ++i) {
    w << "conf " << i;
    for (std::size_t c = 0; c < conf.cols(); ++c) w << ' ' << conf.At(i, c);
    w << '\n';
  }
  for (std::size_t k = 0; k < link.rows(); ++k) {
    w << "link " << k;
    for (std::size_t c = 0; c < link.cols(); ++c) w << ' ' << link.At(k, c);
    w << '\n';
  }
}

Status SaveTMarkModelToFile(const TMarkClassifier& classifier,
                            const std::string& path) {
  obs::TraceSpan span("model_io.save");
  return CountIoError(SaveTextFile(
      path, [&](std::ostream& out) { SaveTMarkModel(classifier, out); }));
}

Result<TMarkClassifier> LoadTMarkModel(std::istream& in) {
  TMarkConfig config;
  std::size_t n = 0, m = 0, q = 0;
  la::DenseMatrix conf, link;
  bool have_shape = false;
  std::vector<bool> conf_seen, link_seen;
  std::set<std::string> seen_scalars;

  Status parsed = ForEachRecord(
      in, kHeader,
      [&](std::size_t, std::string_view,
          const std::vector<std::string_view>& f) -> Status {
        const std::string directive(f[0]);
        const bool scalar = directive == "alpha" || directive == "gamma" ||
                            directive == "lambda" || directive == "ica" ||
                            directive == "kernel" || directive == "shape";
        if (scalar && f.size() != (directive == "shape" ? 4u : 2u)) {
          return ParseError(
              "expected '" + directive +
              (directive == "ica"      ? " 0|1'"
               : directive == "kernel" ? " <name>'"
               : directive == "shape"  ? " <n> <m> <q>'"
                                       : " <value>'"));
        }
        if (scalar && !seen_scalars.insert(directive).second) {
          return ParseError("duplicate '" + directive + "' directive");
        }
        if (directive == "alpha" || directive == "gamma" ||
            directive == "lambda") {
          TMARK_ASSIGN_OR_RETURN(const double value, ParseFiniteDouble(f[1]));
          if (value < 0.0 || value > 1.0) {
            return ParseError(directive + " " + std::string(f[1]) +
                              " outside [0, 1]");
          }
          (directive == "alpha"   ? config.alpha
           : directive == "gamma" ? config.gamma
                                  : config.lambda) = value;
        } else if (directive == "ica") {
          if (f[1] != "0" && f[1] != "1") {
            return ParseError("invalid ica flag '" + std::string(f[1]) +
                              "' (expected 0 or 1)");
          }
          config.ica_update = f[1] == "1";
        } else if (directive == "kernel") {
          const std::optional<hin::SimilarityKernel> kernel =
              hin::TryParseSimilarityKernel(std::string(f[1]));
          if (!kernel.has_value()) {
            return ParseError("unknown similarity kernel '" +
                              std::string(f[1]) + "'");
          }
          config.similarity = *kernel;
        } else if (directive == "shape") {
          TMARK_ASSIGN_OR_RETURN(n, ParseIndex(f[1]));
          TMARK_ASSIGN_OR_RETURN(m, ParseIndex(f[2]));
          TMARK_ASSIGN_OR_RETURN(q, ParseIndex(f[3]));
          if (n == 0 || m == 0 || q == 0) {
            return ParseError("shape dimensions must be positive");
          }
          // Bound n and m first so `n + m` cannot wrap around zero below.
          if (n > kMaxModelElements || m > kMaxModelElements ||
              q > kMaxModelElements / (n + m)) {
            return ParseError("shape exceeds the supported maximum of " +
                              std::to_string(kMaxModelElements) +
                              " stored elements");
          }
          conf = la::DenseMatrix(n, q);
          link = la::DenseMatrix(m, q);
          conf_seen.assign(n, false);
          link_seen.assign(m, false);
          have_shape = true;
        } else if (directive == "conf" || directive == "link") {
          const bool is_conf = directive == "conf";
          if (!have_shape) {
            return FailedPreconditionError("'" + directive +
                                           "' before 'shape'");
          }
          if (f.size() != 2 + q) {
            return ParseError("expected '" + directive + " <row> ' + " +
                              std::to_string(q) + " values, got " +
                              std::to_string(f.size() - 2));
          }
          TMARK_ASSIGN_OR_RETURN(
              const std::size_t row,
              ParseBoundedIndex(f[1], is_conf ? n : m, directive + " row"));
          std::vector<bool>& seen = is_conf ? conf_seen : link_seen;
          if (seen[row]) {
            return ParseError("duplicate " + directive + " row " +
                              std::to_string(row));
          }
          seen[row] = true;
          la::DenseMatrix& target = is_conf ? conf : link;
          for (std::size_t c = 0; c < q; ++c) {
            TMARK_ASSIGN_OR_RETURN(target.At(row, c),
                                   ParseFiniteDouble(f[2 + c]));
          }
        } else {
          return ParseError("unknown directive '" + directive + "'");
        }
        return Status::Ok();
      });
  if (parsed.ok() && !have_shape) {
    parsed = ParseError("model file missing shape line");
  }
  if (!parsed.ok()) return CountIoError(parsed);
  TMarkClassifier classifier(config);
  classifier.confidences_ = std::move(conf);
  classifier.link_importance_ = std::move(link);
  return classifier;
}

Result<TMarkClassifier> LoadTMarkModelFromFile(const std::string& path) {
  obs::TraceSpan span("model_io.load");
  std::ifstream in(path);
  if (!in) return CountIoError(NotFoundError("cannot open " + path));
  Result<TMarkClassifier> result = LoadTMarkModel(in);
  if (!result.ok()) {
    // Already counted by LoadTMarkModel; just attach the path context.
    return result.status().WithContext(path);
  }
  return result;
}

}  // namespace tmark::core
