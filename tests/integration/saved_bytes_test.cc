// The savers format numbers with std::to_chars. Their bytes must equal what
// `std::ostream << std::setprecision(17)` writes, the format every saved
// network, delta and model has always had. The reference writers below are
// that ostream code, kept here as the oracle.

#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tmark/common/random.h"
#include "tmark/core/model_io.h"
#include "tmark/datasets/presets.h"
#include "tmark/eval/experiment.h"
#include "tmark/hin/hin_builder.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"

namespace tmark {
namespace {

std::string ReferenceHinText(const hin::Hin& hin) {
  std::ostringstream out;
  out << "# tmark-hin v1\n";
  out << "nodes " << hin.num_nodes() << "\n";
  out << "feature_dim " << hin.feature_dim() << "\n";
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    out << "relation " << hin.relation_name(k) << "\n";
  }
  for (std::size_t c = 0; c < hin.num_classes(); ++c) {
    out << "class " << hin.class_name(c) << "\n";
  }
  out << std::setprecision(17);
  for (std::size_t k = 0; k < hin.num_relations(); ++k) {
    const la::SparseMatrix& r = hin.relation(k);
    for (std::size_t i = 0; i < r.rows(); ++i) {
      for (std::size_t p = r.row_ptr()[i]; p < r.row_ptr()[i + 1]; ++p) {
        out << "edge " << k << " " << i << " " << r.col_idx()[p] << " "
            << r.values()[p] << "\n";
      }
    }
  }
  for (std::size_t node = 0; node < hin.num_nodes(); ++node) {
    if (hin.labels(node).empty()) continue;
    out << "label " << node;
    for (std::uint32_t c : hin.labels(node)) out << " " << c;
    out << "\n";
  }
  const la::SparseMatrix& f = hin.features();
  for (std::size_t node = 0; node < f.rows(); ++node) {
    if (f.row_ptr()[node] == f.row_ptr()[node + 1]) continue;
    out << "feat " << node;
    for (std::size_t p = f.row_ptr()[node]; p < f.row_ptr()[node + 1]; ++p) {
      out << " " << f.col_idx()[p] << ":" << f.values()[p];
    }
    out << "\n";
  }
  return out.str();
}

std::string ReferenceModelText(const core::TMarkClassifier& clf) {
  const la::DenseMatrix& conf = clf.Confidences();
  const la::DenseMatrix& link = clf.LinkImportance();
  std::ostringstream out;
  out << "# tmark-model v1\n" << std::setprecision(17);
  out << "alpha " << clf.config().alpha << "\n";
  out << "gamma " << clf.config().gamma << "\n";
  out << "lambda " << clf.config().lambda << "\n";
  out << "ica " << (clf.config().ica_update ? 1 : 0) << "\n";
  out << "kernel " << hin::ToString(clf.config().similarity) << "\n";
  out << "shape " << conf.rows() << " " << link.rows() << " " << conf.cols()
      << "\n";
  for (std::size_t i = 0; i < conf.rows(); ++i) {
    out << "conf " << i;
    for (std::size_t c = 0; c < conf.cols(); ++c) out << " " << conf.At(i, c);
    out << "\n";
  }
  for (std::size_t k = 0; k < link.rows(); ++k) {
    out << "link " << k;
    for (std::size_t c = 0; c < link.cols(); ++c) out << " " << link.At(k, c);
    out << "\n";
  }
  return out.str();
}

std::string ReferenceDeltaText(const hin::HinDelta& delta) {
  std::ostringstream out;
  out << "# tmark-delta v1\n" << std::setprecision(17);
  for (const hin::EdgeOp& op : delta.edge_ops()) {
    out << (op.kind == hin::EdgeOp::Kind::kAdd      ? "add_edge"
            : op.kind == hin::EdgeOp::Kind::kRemove ? "remove_edge"
                                                    : "reweight_edge")
        << " " << op.relation << " " << op.dst << " " << op.src;
    if (op.kind != hin::EdgeOp::Kind::kRemove) out << " " << op.weight;
    out << "\n";
  }
  for (const hin::FeatureRowUpdate& u : delta.feature_updates()) {
    out << "feat " << u.node;
    for (const auto& [dim, value] : u.entries) {
      out << " " << dim << ":" << value;
    }
    out << "\n";
  }
  for (const hin::LabelAdd& l : delta.label_adds()) {
    out << "label " << l.node << " " << l.cls << "\n";
  }
  return out.str();
}

std::string HinText(const hin::Hin& hin) {
  std::ostringstream out;
  hin::SaveHin(hin, out);
  return out.str();
}

std::string ModelText(const core::TMarkClassifier& clf) {
  std::ostringstream out;
  core::SaveTMarkModel(clf, out);
  return out.str();
}

core::TMarkClassifier FitOnHalf(const hin::Hin& hin) {
  Rng rng(5);
  core::TMarkClassifier clf(core::TMarkConfig{});
  clf.Fit(hin, eval::StratifiedSplit(hin, 0.5, &rng));
  return clf;
}

/// Values whose shortest round-trip spelling needs all 17 digits, an
/// exponent, or none of either.
const std::vector<double>& AwkwardValues() {
  static const std::vector<double> values = {
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::denorm_min() * 977,
      std::numeric_limits<double>::min(),
      1e-300,
      2.5e-3,
      0.1,
      1.0 / 3.0,
      1.0,
      3.0,
      1e15,
      1e17,
      1e300};
  return values;
}

TEST(SavedBytesTest, PresetNetworksAndModelsMatchTheOstreamFormat) {
  std::vector<std::string> names = datasets::PresetNames();
  names.push_back("synthetic:300");
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    datasets::PresetOptions options;
    if (name != "example" && name.rfind("synthetic:", 0) != 0) {
      options.num_nodes = 150;
    }
    const Result<hin::Hin> hin = datasets::MakePreset(name, options);
    ASSERT_TRUE(hin.ok()) << hin.status().ToString();
    EXPECT_EQ(HinText(*hin), ReferenceHinText(*hin));
    const core::TMarkClassifier clf = FitOnHalf(*hin);
    EXPECT_EQ(ModelText(clf), ReferenceModelText(clf));
  }
}

TEST(SavedBytesTest, AwkwardWeightsAndFeaturesMatchTheOstreamFormat) {
  const std::vector<double>& values = AwkwardValues();
  const std::size_t n = values.size() + 1;
  hin::HinBuilder b(n, n);
  b.AddRelation("r");
  b.AddClass("a");
  b.AddClass("b");
  hin::HinDelta delta;
  std::vector<std::pair<std::size_t, double>> row;
  for (std::size_t i = 0; i < values.size(); ++i) {
    b.AddDirectedEdge(0, i, i + 1, values[i]);
    b.AddFeature(i, i + 1, values[i]);
    b.SetLabel(i, i % 2);
    delta.AddEdge(0, i + 1, i, values[i]);
    delta.ReweightEdge(0, i, i + 1, values[i]);
    row.emplace_back(i, values[i]);
  }
  delta.RemoveEdge(0, 0, 1);
  delta.UpdateFeatureRow(3, row);
  delta.AddLabel(4, 1);
  const hin::Hin hin = std::move(b).Build();
  EXPECT_EQ(HinText(hin), ReferenceHinText(hin));

  std::ostringstream saved_delta;
  hin::SaveHinDelta(delta, saved_delta);
  EXPECT_EQ(saved_delta.str(), ReferenceDeltaText(delta));

  // A model holding the same values, read back from its own text.
  std::ostringstream text;
  text << "# tmark-model v1\nshape 1 1 " << values.size() << "\nconf 0"
       << std::setprecision(17);
  for (double v : values) text << ' ' << v;
  text << "\nlink 0";
  for (double v : values) text << ' ' << v;
  std::istringstream in(text.str() + "\n");
  const Result<core::TMarkClassifier> model = core::LoadTMarkModel(in);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(ModelText(*model), ReferenceModelText(*model));
}

}  // namespace
}  // namespace tmark
