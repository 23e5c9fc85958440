#include "tmark/hin/hin_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "tmark/common/line_reader.h"
#include "tmark/common/strict_parse.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::hin {
namespace {

constexpr char kHeader[] = "# tmark-hin v1";

using obs::CountIoError;

/// Upper bound on the declared node count / feature dimension: caps the
/// memory a hostile header line can make the loader allocate before any
/// real data is read (the edge/label/feat records are bounded by file
/// size; these two directives are not).
constexpr std::size_t kMaxDeclaredDim = std::size_t{1} << 26;  // 67M

/// One `edge` line, endpoints clamped to 32 bits: a clamped value stays out
/// of range (kMaxDeclaredDim), and the endpoint error omits the value.
struct EdgeRec {
  std::size_t k;
  std::uint32_t dst, src;
  double w;
  std::size_t line;
};

/// A class of a `label` line (value 1) or a <dim>:<value> of a `feat` line.
/// A bare `label <node>` or `feat <node>` is one record with a NaN value,
/// which no token parses to: no index, but its node is still checked.
struct NodeRec {
  std::size_t node, index;
  double value;
  std::size_t line;
};

bool EdgeKeyLess(const EdgeRec& a, const EdgeRec& b) {
  return std::tie(a.k, a.dst, a.src, a.line) <
         std::tie(b.k, b.dst, b.src, b.line);
}

Result<Hin> LoadHinImpl(std::istream& in, LineStats* stats) {
  std::size_t num_nodes = 0, feature_dim = 0;
  bool have_nodes = false, have_dim = false;
  std::vector<std::string> relation_names, class_names;
  std::vector<EdgeRec> edges;
  std::vector<NodeRec> labels, feats;
  const auto clamp = [](std::size_t v) {
    return static_cast<std::uint32_t>(std::min<std::size_t>(v, UINT32_MAX));
  };

  // Tokens first: the first malformed one, in file order, wins.
  TMARK_RETURN_IF_ERROR(ForEachRecord(
      in, kHeader,
      [&](std::size_t line_no, std::string_view stripped,
          const std::vector<std::string_view>& f) -> Status {
        const std::string directive(f[0]);
        if (directive == "edge") {
          if (f.size() != 5) {
            return ParseError("expected 'edge <k> <dst> <src> <w>'");
          }
          EdgeRec e{};
          TMARK_ASSIGN_OR_RETURN(e.k, ParseIndex(f[1]));
          TMARK_ASSIGN_OR_RETURN(const std::size_t dst, ParseIndex(f[2]));
          TMARK_ASSIGN_OR_RETURN(const std::size_t src, ParseIndex(f[3]));
          TMARK_ASSIGN_OR_RETURN(e.w, ParsePositiveFiniteDouble(f[4]));
          e.dst = clamp(dst);
          e.src = clamp(src);
          e.line = line_no;
          edges.push_back(e);
        } else if (directive == "feat") {
          if (f.size() < 2) {
            return ParseError("expected 'feat <node> <dim>:<value> ...'");
          }
          TMARK_ASSIGN_OR_RETURN(const std::size_t node, ParseIndex(f[1]));
          if (f.size() == 2) feats.push_back({node, 0, std::nan(""), line_no});
          for (std::size_t t = 2; t < f.size(); ++t) {
            TMARK_ASSIGN_OR_RETURN(const auto entry, ParseFeatureEntry(f[t]));
            feats.push_back({node, entry.first, entry.second, line_no});
          }
        } else if (directive == "label") {
          if (f.size() < 2) {
            return ParseError("expected 'label <node> [<c> ...]'");
          }
          TMARK_ASSIGN_OR_RETURN(const std::size_t node, ParseIndex(f[1]));
          if (f.size() == 2) labels.push_back({node, 0, std::nan(""), line_no});
          for (std::size_t t = 2; t < f.size(); ++t) {
            TMARK_ASSIGN_OR_RETURN(const std::size_t c, ParseIndex(f[t]));
            labels.push_back({node, c, 1.0, line_no});
          }
        } else if (directive == "nodes" || directive == "feature_dim") {
          const bool is_nodes = directive == "nodes";
          if (f.size() != 2) {
            return ParseError("expected '" + directive + " <n>'");
          }
          if (is_nodes ? have_nodes : have_dim) {
            return ParseError("duplicate '" + directive + "' directive");
          }
          TMARK_ASSIGN_OR_RETURN(const std::size_t value, ParseIndex(f[1]));
          if (value > kMaxDeclaredDim) {
            return ParseError(directive + " " + std::string(f[1]) +
                              " exceeds the supported maximum");
          }
          (is_nodes ? num_nodes : feature_dim) = value;
          (is_nodes ? have_nodes : have_dim) = true;
        } else if (directive == "relation" || directive == "class") {
          const std::string_view name =
              StripSpace(stripped.substr(directive.size()));
          if (name.empty()) return ParseError("empty " + directive + " name");
          (directive == "relation" ? relation_names : class_names)
              .emplace_back(name);
        } else {
          return ParseError("unknown directive '" + directive + "'");
        }
        return Status::Ok();
      },
      stats));
  if (!have_nodes || !have_dim) {
    return ParseError("file missing nodes/feature_dim directives");
  }

  // Then every index against the declared shape (directives may come in
  // any order), so the builder calls below cannot violate a contract.
  // Edges first: the error of the smallest line among out-of-range edges
  // and repeats of an in-range (k, dst, src), where a file-order scan
  // stops. Sorted by (k, dst, src, line), a repeat is any record after the
  // first of its key.
  if (!std::is_sorted(edges.begin(), edges.end(), EdgeKeyLess)) {
    std::sort(edges.begin(), edges.end(), EdgeKeyLess);
  }
  Status edge_error;
  std::size_t error_line = SIZE_MAX;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const EdgeRec& e = edges[i];
    if (e.line >= error_line) continue;
    Status error =
        CheckIndexBound(e.k, relation_names.size(), "edge relation");
    if (error.ok() && (e.dst >= num_nodes || e.src >= num_nodes)) {
      error = ParseError("edge endpoint out of range [0, " +
                         std::to_string(num_nodes) + ")");
    }
    if (error.ok() && i > 0 && edges[i - 1].k == e.k &&
        edges[i - 1].dst == e.dst && edges[i - 1].src == e.src) {
      error = ParseError("duplicate edge (" + std::to_string(e.k) + ", " +
                         std::to_string(e.dst) + ", " +
                         std::to_string(e.src) + ")");
    }
    if (!error.ok()) {
      edge_error = error;
      error_line = e.line;
    }
  }
  if (!edge_error.ok()) return AtLine(error_line, edge_error);
  const auto check = [&](const std::vector<NodeRec>& recs,
                         const char* node_what, std::size_t bound,
                         const char* index_what) -> Status {
    for (const NodeRec& r : recs) {
      TMARK_RETURN_IF_ERROR(
          AtLine(r.line, CheckIndexBound(r.node, num_nodes, node_what)));
      if (std::isnan(r.value)) continue;
      TMARK_RETURN_IF_ERROR(
          AtLine(r.line, CheckIndexBound(r.index, bound, index_what)));
    }
    return Status::Ok();
  };
  TMARK_RETURN_IF_ERROR(
      check(labels, "label node", class_names.size(), "label class"));
  TMARK_RETURN_IF_ERROR(check(feats, "feat node", feature_dim, "feature dim"));

  // Sorted and unique, the edges need no sort in FromTriplets.
  HinBuilder b(num_nodes, feature_dim);
  for (const std::string& name : relation_names) b.AddRelation(name);
  for (const std::string& name : class_names) b.AddClass(name);
  for (std::size_t i = 0, k = 0; k < relation_names.size(); ++k) {
    const std::size_t first = i;
    while (i < edges.size() && edges[i].k == k) ++i;
    b.ReserveEdges(k, i - first);
  }
  for (const EdgeRec& e : edges) b.AddDirectedEdge(e.k, e.src, e.dst, e.w);
  edges = {};
  for (const NodeRec& r : labels) {
    if (!std::isnan(r.value)) b.SetLabel(r.node, r.index);
  }
  b.ReserveFeatures(feats.size());
  for (const NodeRec& r : feats) {
    if (!std::isnan(r.value)) b.AddFeature(r.node, r.index, r.value);
  }
  feats = {};
  return std::move(b).Build();
}

}  // namespace

Result<std::pair<std::size_t, double>> ParseFeatureEntry(
    std::string_view token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string_view::npos) {
    return ParseError("malformed feat token '" + std::string(token) +
                      "' (expected <dim>:<value>)");
  }
  TMARK_ASSIGN_OR_RETURN(const std::size_t dim,
                         ParseIndex(token.substr(0, colon)));
  TMARK_ASSIGN_OR_RETURN(const double value,
                         ParseFiniteDouble(token.substr(colon + 1)));
  if (value < 0.0) {
    return ParseError("negative feature value in '" + std::string(token) +
                      "' (features are non-negative counts)");
  }
  return std::make_pair(dim, value);
}

void SaveHin(const Hin& hin, std::ostream& out) {
  LineWriter w(out);
  w << kHeader << '\n';
  w << "nodes " << hin.num_nodes() << '\n';
  w << "feature_dim " << hin.feature_dim() << '\n';
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    w << "relation " << hin.relation_name(k) << '\n';
  }
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    w << "class " << hin.class_name(c) << '\n';
  }
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    const la::SparseMatrix& r = hin.relation(k);
    for (std::size_t i = 0; i < r.rows(); ++i) {
      for (std::size_t p = r.row_ptr()[i]; p < r.row_ptr()[i + 1]; ++p) {
        w << "edge " << k << ' ' << i << ' ' << r.col_idx()[p] << ' '
          << r.values()[p] << '\n';
      }
    }
  }
  for (std::size_t node = 0; node < hin.num_nodes(); ++node) {
    const std::vector<std::uint32_t>& ls = hin.labels(node);
    if (ls.empty()) continue;
    w << "label " << node;
    for (std::uint32_t c : ls) w << ' ' << c;
    w << '\n';
  }
  const la::SparseMatrix& f = hin.features();
  for (std::size_t node = 0; node < f.rows(); ++node) {
    if (f.row_ptr()[node] == f.row_ptr()[node + 1]) continue;
    w << "feat " << node;
    for (std::size_t p = f.row_ptr()[node]; p < f.row_ptr()[node + 1]; ++p) {
      w << ' ' << f.col_idx()[p] << ':' << f.values()[p];
    }
    w << '\n';
  }
}

Status SaveHinToFile(const Hin& hin, const std::string& path) {
  return CountIoError(
      SaveTextFile(path, [&](std::ostream& out) { SaveHin(hin, out); }));
}

Result<Hin> LoadHin(std::istream& in) {
  Result<Hin> result = LoadHinImpl(in, nullptr);
  if (!result.ok()) CountIoError(result.status());
  return result;
}

Result<Hin> LoadHinFromFile(const std::string& path) {
  obs::TraceSpan span("hin_io.load");
  std::ifstream in(path);
  if (!in) return CountIoError(NotFoundError("cannot open " + path));
  LineStats stats;
  Result<Hin> result = LoadHinImpl(in, &stats);
  if (!result.ok()) return CountIoError(result.status().WithContext(path));
  span.AddField("bytes", stats.bytes);
  span.AddField("lines", stats.lines);
  return result;
}

}  // namespace tmark::hin
