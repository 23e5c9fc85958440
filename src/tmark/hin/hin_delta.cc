#include "tmark/hin/hin_delta.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "tmark/common/line_reader.h"
#include "tmark/common/strict_parse.h"
#include "tmark/hin/hin_io.h"
#include "tmark/la/sparse_matrix.h"
#include "tmark/obs/metrics.h"
#include "tmark/obs/trace.h"

namespace tmark::hin {
namespace {

constexpr char kHeader[] = "# tmark-delta v1";

using obs::CountIoError;

const char* KindName(EdgeOp::Kind kind) {
  switch (kind) {
    case EdgeOp::Kind::kAdd:
      return "add_edge";
    case EdgeOp::Kind::kRemove:
      return "remove_edge";
    case EdgeOp::Kind::kReweight:
      return "reweight_edge";
  }
  return "edge";
}

std::string EdgeKey(const EdgeOp& op) {
  std::string key = "(";
  key += std::to_string(op.relation);
  key += ", ";
  key += std::to_string(op.dst);
  key += ", ";
  key += std::to_string(op.src);
  key += ')';
  return key;
}

}  // namespace

void HinDelta::AddEdge(std::size_t relation, std::size_t src, std::size_t dst,
                       double weight) {
  edge_ops_.push_back(
      EdgeOp{EdgeOp::Kind::kAdd, relation, dst, src, weight});
}

void HinDelta::RemoveEdge(std::size_t relation, std::size_t src,
                          std::size_t dst) {
  edge_ops_.push_back(EdgeOp{EdgeOp::Kind::kRemove, relation, dst, src, 0.0});
}

void HinDelta::ReweightEdge(std::size_t relation, std::size_t src,
                            std::size_t dst, double weight) {
  edge_ops_.push_back(
      EdgeOp{EdgeOp::Kind::kReweight, relation, dst, src, weight});
}

void HinDelta::UpdateFeatureRow(
    std::size_t node, std::vector<std::pair<std::size_t, double>> entries) {
  feature_updates_.push_back(FeatureRowUpdate{node, std::move(entries)});
}

void HinDelta::AddLabel(std::size_t node, std::size_t cls) {
  label_adds_.push_back(LabelAdd{node, cls});
}

Status HinDelta::Validate(const Hin& hin) const {
  const std::size_t n = hin.num_nodes();
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen_edges;
  for (const EdgeOp& op : edge_ops_) {
    const char* name = KindName(op.kind);
    if (op.relation >= hin.num_relations()) {
      return CountIoError(InvalidArgumentError(
          std::string(name) + ": relation " + std::to_string(op.relation) +
          " out of range [0, " + std::to_string(hin.num_relations()) + ")"));
    }
    if (op.dst >= n || op.src >= n) {
      return CountIoError(InvalidArgumentError(
          std::string(name) + " " + EdgeKey(op) +
          ": endpoint out of range [0, " + std::to_string(n) + ")"));
    }
    if (op.kind != EdgeOp::Kind::kRemove &&
        !(std::isfinite(op.weight) && op.weight > 0.0)) {
      return CountIoError(InvalidArgumentError(
          std::string(name) + " " + EdgeKey(op) +
          ": weight must be finite and > 0"));
    }
    if (!seen_edges.emplace(op.relation, op.dst, op.src).second) {
      return CountIoError(InvalidArgumentError(
          "duplicate edge op on " + EdgeKey(op) + " in one batch"));
    }
    const bool exists =
        hin.relation(op.relation).FindEntry(op.dst, op.src) !=
        la::SparseMatrix::npos;
    if (op.kind == EdgeOp::Kind::kAdd && exists) {
      return CountIoError(FailedPreconditionError(
          "add_edge " + EdgeKey(op) + ": edge already exists"));
    }
    if (op.kind != EdgeOp::Kind::kAdd && !exists) {
      return CountIoError(NotFoundError(std::string(name) + " " +
                                        EdgeKey(op) + ": no such edge"));
    }
  }
  std::set<std::size_t> seen_feat_nodes;
  for (const FeatureRowUpdate& u : feature_updates_) {
    if (u.node >= n) {
      return CountIoError(InvalidArgumentError(
          "feat: node " + std::to_string(u.node) + " out of range [0, " +
          std::to_string(n) + ")"));
    }
    if (!seen_feat_nodes.insert(u.node).second) {
      return CountIoError(InvalidArgumentError(
          "duplicate feature update for node " + std::to_string(u.node) +
          " in one batch"));
    }
    std::set<std::size_t> seen_dims;
    for (const auto& [dim, value] : u.entries) {
      if (dim >= hin.feature_dim()) {
        return CountIoError(InvalidArgumentError(
            "feat node " + std::to_string(u.node) + ": dim " +
            std::to_string(dim) + " out of range [0, " +
            std::to_string(hin.feature_dim()) + ")"));
      }
      if (!(std::isfinite(value) && value >= 0.0)) {
        return CountIoError(InvalidArgumentError(
            "feat node " + std::to_string(u.node) + ": value at dim " +
            std::to_string(dim) + " must be finite and non-negative"));
      }
      if (!seen_dims.insert(dim).second) {
        return CountIoError(InvalidArgumentError(
            "feat node " + std::to_string(u.node) + ": duplicate dim " +
            std::to_string(dim)));
      }
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> seen_labels;
  for (const LabelAdd& l : label_adds_) {
    if (l.node >= n) {
      return CountIoError(InvalidArgumentError(
          "label: node " + std::to_string(l.node) + " out of range [0, " +
          std::to_string(n) + ")"));
    }
    if (l.cls >= hin.num_classes()) {
      return CountIoError(InvalidArgumentError(
          "label node " + std::to_string(l.node) + ": class " +
          std::to_string(l.cls) + " out of range [0, " +
          std::to_string(hin.num_classes()) + ")"));
    }
    if (!seen_labels.emplace(l.node, l.cls).second) {
      return CountIoError(InvalidArgumentError(
          "duplicate label (" + std::to_string(l.node) + ", " +
          std::to_string(l.cls) + ") in one batch"));
    }
    if (hin.HasLabel(l.node, l.cls)) {
      return CountIoError(FailedPreconditionError(
          "label node " + std::to_string(l.node) + " already carries class " +
          std::to_string(l.cls)));
    }
  }
  return Status::Ok();
}

Status Hin::ApplyDelta(const HinDelta& delta) {
  TMARK_RETURN_IF_ERROR(delta.Validate(*this));

  // Edges: group ops per relation per destination row, splice each touched
  // row once through the CSR row-edit path.
  std::map<std::size_t, std::map<std::size_t, std::vector<const EdgeOp*>>>
      by_rel_row;
  for (const EdgeOp& op : delta.edge_ops()) {
    by_rel_row[op.relation][op.dst].push_back(&op);
  }
  for (auto& [k, rows] : by_rel_row) {
    la::SparseMatrix& rel = relations_[k];
    std::vector<la::RowEdit> edits;
    edits.reserve(rows.size());
    for (auto& [i, ops] : rows) {
      la::RowEdit e;
      e.row = i;
      const std::size_t begin = rel.row_ptr()[i];
      const std::size_t end = rel.row_ptr()[i + 1];
      e.cols.assign(rel.col_idx().begin() + begin,
                    rel.col_idx().begin() + end);
      e.values.assign(rel.values().begin() + begin,
                      rel.values().begin() + end);
      for (const EdgeOp* op : ops) {
        const auto c = static_cast<std::uint32_t>(op->src);
        const auto it = std::lower_bound(e.cols.begin(), e.cols.end(), c);
        const std::size_t pos =
            static_cast<std::size_t>(it - e.cols.begin());
        switch (op->kind) {
          case EdgeOp::Kind::kAdd:
            e.cols.insert(it, c);
            e.values.insert(e.values.begin() +
                                static_cast<std::ptrdiff_t>(pos),
                            op->weight);
            break;
          case EdgeOp::Kind::kRemove:
            e.cols.erase(it);
            e.values.erase(e.values.begin() +
                           static_cast<std::ptrdiff_t>(pos));
            break;
          case EdgeOp::Kind::kReweight:
            e.values[pos] = op->weight;
            break;
        }
      }
      edits.push_back(std::move(e));
    }
    rel.ApplyRowEdits(std::move(edits));
  }

  // Features: each update replaces the node's whole row; explicit zeros are
  // dropped so the stored pattern matches what HinBuilder would produce for
  // the same non-zero content.
  if (!delta.feature_updates().empty()) {
    std::vector<la::RowEdit> edits;
    edits.reserve(delta.feature_updates().size());
    for (const FeatureRowUpdate& u : delta.feature_updates()) {
      std::vector<std::pair<std::size_t, double>> entries = u.entries;
      std::sort(entries.begin(), entries.end());
      la::RowEdit e;
      e.row = u.node;
      e.cols.reserve(entries.size());
      e.values.reserve(entries.size());
      for (const auto& [dim, value] : entries) {
        if (value == 0.0) continue;
        e.cols.push_back(static_cast<std::uint32_t>(dim));
        e.values.push_back(value);
      }
      edits.push_back(std::move(e));
    }
    std::sort(edits.begin(), edits.end(),
              [](const la::RowEdit& a, const la::RowEdit& b) {
                return a.row < b.row;
              });
    features_.ApplyRowEdits(std::move(edits));
  }

  for (const LabelAdd& l : delta.label_adds()) {
    std::vector<std::uint32_t>& ls = labels_[l.node];
    const auto c = static_cast<std::uint32_t>(l.cls);
    ls.insert(std::lower_bound(ls.begin(), ls.end(), c), c);
  }
  return Status::Ok();
}

void SaveHinDelta(const HinDelta& delta, std::ostream& out) {
  LineWriter w(out);
  w << kHeader << '\n';
  for (const EdgeOp& op : delta.edge_ops()) {
    w << KindName(op.kind) << ' ' << op.relation << ' ' << op.dst << ' '
      << op.src;
    if (op.kind != EdgeOp::Kind::kRemove) w << ' ' << op.weight;
    w << '\n';
  }
  for (const FeatureRowUpdate& u : delta.feature_updates()) {
    w << "feat " << u.node;
    for (const auto& [dim, value] : u.entries) {
      w << ' ' << dim << ':' << value;
    }
    w << '\n';
  }
  for (const LabelAdd& l : delta.label_adds()) {
    w << "label " << l.node << ' ' << l.cls << '\n';
  }
}

Status SaveHinDeltaToFile(const HinDelta& delta, const std::string& path) {
  return CountIoError(SaveTextFile(
      path, [&](std::ostream& out) { SaveHinDelta(delta, out); }));
}

Result<HinDelta> LoadHinDelta(std::istream& in) {
  HinDelta delta;
  // Batch-level duplicate detection happens while parsing — a duplicate op
  // in one file is a malformed file (kParseError), whereas a duplicate fed
  // through the builder API surfaces later as kInvalidArgument in Validate.
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen_edges;
  std::set<std::size_t> seen_feat_nodes;
  std::set<std::pair<std::size_t, std::size_t>> seen_labels;

  const Status parsed = ForEachRecord(
      in, kHeader,
      [&](std::size_t, std::string_view,
          const std::vector<std::string_view>& f) -> Status {
        const std::string directive(f[0]);
        if (directive == "add_edge" || directive == "reweight_edge" ||
            directive == "remove_edge") {
          const bool weighted = directive != "remove_edge";
          if (f.size() != (weighted ? 5u : 4u)) {
            return ParseError("expected '" + directive + " <k> <dst> <src>" +
                              (weighted ? " <w>'" : "'"));
          }
          EdgeOp op{};
          TMARK_ASSIGN_OR_RETURN(op.relation, ParseIndex(f[1]));
          TMARK_ASSIGN_OR_RETURN(op.dst, ParseIndex(f[2]));
          TMARK_ASSIGN_OR_RETURN(op.src, ParseIndex(f[3]));
          if (weighted) {
            TMARK_ASSIGN_OR_RETURN(op.weight, ParsePositiveFiniteDouble(f[4]));
          }
          if (!seen_edges.emplace(op.relation, op.dst, op.src).second) {
            return ParseError("duplicate edge op on " + EdgeKey(op));
          }
          if (directive == "add_edge") {
            delta.AddEdge(op.relation, op.src, op.dst, op.weight);
          } else if (weighted) {
            delta.ReweightEdge(op.relation, op.src, op.dst, op.weight);
          } else {
            delta.RemoveEdge(op.relation, op.src, op.dst);
          }
        } else if (directive == "feat") {
          if (f.size() < 2) {
            return ParseError("expected 'feat <node> <dim>:<value> ...'");
          }
          TMARK_ASSIGN_OR_RETURN(const std::size_t node, ParseIndex(f[1]));
          if (!seen_feat_nodes.insert(node).second) {
            return ParseError("duplicate feat row for node " +
                              std::to_string(node));
          }
          std::vector<std::pair<std::size_t, double>> entries;
          std::set<std::size_t> seen_dims;
          for (std::size_t t = 2; t < f.size(); ++t) {
            TMARK_ASSIGN_OR_RETURN(const auto entry, ParseFeatureEntry(f[t]));
            if (!seen_dims.insert(entry.first).second) {
              return ParseError("duplicate feature dim " +
                                std::to_string(entry.first));
            }
            entries.push_back(entry);
          }
          delta.UpdateFeatureRow(node, std::move(entries));
        } else if (directive == "label") {
          if (f.size() != 3) return ParseError("expected 'label <node> <c>'");
          TMARK_ASSIGN_OR_RETURN(const std::size_t node, ParseIndex(f[1]));
          TMARK_ASSIGN_OR_RETURN(const std::size_t cls, ParseIndex(f[2]));
          if (!seen_labels.emplace(node, cls).second) {
            return ParseError("duplicate label (" + std::to_string(node) +
                              ", " + std::to_string(cls) + ")");
          }
          delta.AddLabel(node, cls);
        } else {
          return ParseError("unknown directive '" + directive + "'");
        }
        return Status::Ok();
      });
  if (!parsed.ok()) return CountIoError(parsed);
  return delta;
}

Result<HinDelta> LoadHinDeltaFromFile(const std::string& path) {
  obs::TraceSpan span("hin_delta.load");
  std::ifstream in(path);
  if (!in) return CountIoError(NotFoundError("cannot open " + path));
  Result<HinDelta> result = LoadHinDelta(in);
  if (!result.ok()) {
    // Already counted by LoadHinDelta; just attach the path context.
    return result.status().WithContext(path);
  }
  return result;
}

}  // namespace tmark::hin
