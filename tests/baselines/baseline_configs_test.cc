// Configuration-knob coverage for the baseline classifiers: every exposed
// hyper-parameter must change behaviour the way its contract says, and
// degenerate settings must stay well-defined.

#include <gtest/gtest.h>

#include "tmark/baselines/emr.h"
#include "tmark/baselines/hcc.h"
#include "tmark/baselines/ica.h"
#include "tmark/baselines/wvrn_rl.h"
#include "tmark/datasets/synthetic_hin.h"
#include "tmark/ml/metrics.h"

namespace tmark::baselines {
namespace {

hin::Hin ConfigHin(std::uint64_t seed) {
  datasets::SyntheticHinConfig config;
  config.num_nodes = 100;
  config.class_names = {"A", "B"};
  config.vocab_size = 40;
  config.words_per_node = 12.0;
  config.feature_signal = 0.75;
  config.seed = seed;
  for (int k = 0; k < 3; ++k) {
    datasets::RelationSpec rel;
    rel.name = 'r' + std::to_string(k);
    rel.same_class_prob = k == 0 ? 0.9 : 0.5;
    rel.edges_per_member = 3.0;
    config.relations.push_back(rel);
  }
  return datasets::GenerateSyntheticHin(config);
}

std::vector<std::size_t> HalfLabeled(const hin::Hin& hin) {
  std::vector<std::size_t> labeled;
  for (std::size_t i = 0; i < hin.num_nodes(); i += 2) labeled.push_back(i);
  return labeled;
}

TEST(IcaConfigTest, ZeroIterationsIsContentBootstrapOnly) {
  const hin::Hin hin = ConfigHin(81);
  IcaConfig config;
  config.iterations = 0;
  IcaClassifier clf(config);
  clf.Fit(hin, HalfLabeled(hin));
  // Still produces a full confidence matrix.
  EXPECT_EQ(clf.Confidences().rows(), hin.num_nodes());
}

TEST(IcaConfigTest, MoreIterationsChangeTheResult) {
  const hin::Hin hin = ConfigHin(82);
  IcaConfig one;
  one.iterations = 1;
  IcaConfig many;
  many.iterations = 6;
  IcaClassifier a(one), b(many);
  a.Fit(hin, HalfLabeled(hin));
  b.Fit(hin, HalfLabeled(hin));
  EXPECT_GT(a.Confidences().MaxAbsDiff(b.Confidences()), 0.0);
}

TEST(HccConfigTest, MetaPathsToggleChangesFeatures) {
  const hin::Hin hin = ConfigHin(83);
  HccConfig with;
  with.use_meta_paths = true;
  HccConfig without;
  without.use_meta_paths = false;
  HccClassifier a(with), b(without);
  a.Fit(hin, HalfLabeled(hin));
  b.Fit(hin, HalfLabeled(hin));
  EXPECT_GT(a.Confidences().MaxAbsDiff(b.Confidences()), 0.0);
}

TEST(HccConfigTest, ChannelCapRespected) {
  // max_channels = 1 pools everything; must still fit and predict.
  const hin::Hin hin = ConfigHin(84);
  HccConfig config;
  config.max_channels = 1;
  config.use_meta_paths = false;
  HccClassifier clf(config);
  clf.Fit(hin, HalfLabeled(hin));
  EXPECT_EQ(clf.Confidences().cols(), hin.num_classes());
}

TEST(WvrnConfigTest, ZeroIterationsKeepsPrior) {
  const hin::Hin hin = ConfigHin(85);
  WvrnRlConfig config;
  config.iterations = 0;
  WvrnRlClassifier clf(config);
  const auto labeled = HalfLabeled(hin);
  clf.Fit(hin, labeled);
  // Unlabeled rows are exactly the class prior.
  std::vector<bool> is_labeled(hin.num_nodes(), false);
  for (std::size_t i : labeled) is_labeled[i] = true;
  la::Vector prior(hin.num_classes(), 0.0);
  for (std::size_t node : labeled) prior[hin.PrimaryLabel(node)] += 1.0;
  la::NormalizeL1(&prior);
  for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
    if (is_labeled[i]) continue;
    for (std::size_t c = 0; c < hin.num_classes(); ++c) {
      EXPECT_DOUBLE_EQ(clf.Confidences().At(i, c), prior[c]);
    }
    break;  // one row suffices
  }
}

TEST(WvrnConfigTest, DecayStabilizesEstimates) {
  const hin::Hin hin = ConfigHin(86);
  WvrnRlConfig fast_decay;
  fast_decay.decay = 0.2;  // estimates freeze almost immediately
  WvrnRlConfig slow_decay;
  slow_decay.decay = 0.99;
  WvrnRlClassifier a(fast_decay), b(slow_decay);
  a.Fit(hin, HalfLabeled(hin));
  b.Fit(hin, HalfLabeled(hin));
  EXPECT_GT(a.Confidences().MaxAbsDiff(b.Confidences()), 0.0);
}

TEST(EmrConfigTest, MemberCapBoundsEnsembleCost) {
  const hin::Hin hin = ConfigHin(87);
  EmrConfig config;
  config.max_members = 2;
  config.base.epochs = 15;
  EmrClassifier clf(config);
  clf.Fit(hin, HalfLabeled(hin));
  EXPECT_EQ(clf.Confidences().rows(), hin.num_nodes());
  for (std::size_t i = 0; i < hin.num_nodes(); ++i) {
    EXPECT_TRUE(la::IsProbabilityVector(clf.Confidences().Row(i), 1e-9));
  }
}

TEST(EmrConfigTest, ZeroMemberIterationsIsContentVote) {
  const hin::Hin hin = ConfigHin(88);
  EmrConfig config;
  config.member_iterations = 0;
  config.base.epochs = 15;
  EmrClassifier clf(config);
  clf.Fit(hin, HalfLabeled(hin));
  EXPECT_EQ(clf.Confidences().cols(), hin.num_classes());
}

}  // namespace
}  // namespace tmark::baselines
