#include "tmark/baselines/registry.h"

#include <gtest/gtest.h>

#include "tmark/common/check.h"
#include "tmark/core/tmark.h"
#include "tmark/datasets/paper_example.h"

namespace tmark::baselines {
namespace {

TEST(RegistryTest, PaperMethodNamesMatchTables) {
  const std::vector<std::string> names = PaperMethodNames();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "T-Mark");
  EXPECT_EQ(names.back(), "ICA");
}

TEST(RegistryTest, EveryPaperMethodConstructs) {
  for (const std::string& name : PaperMethodNames()) {
    const auto clf = MakeClassifier(name);
    ASSERT_NE(clf, nullptr) << name;
    EXPECT_EQ(clf->Name(), name);
  }
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(MakeClassifier("NoSuchMethod"), CheckError);
}

TEST(RegistryTest, TMarkParametersForwarded) {
  const auto clf = MakeClassifier("T-Mark", 0.9, 0.4);
  const auto* tm = dynamic_cast<const core::TMarkClassifier*>(clf.get());
  ASSERT_NE(tm, nullptr);
  EXPECT_DOUBLE_EQ(tm->config().alpha, 0.9);
  EXPECT_DOUBLE_EQ(tm->config().gamma, 0.4);
}

TEST(RegistryTest, TensorRrCcHasIcaDisabled) {
  const auto clf = MakeClassifier("TensorRrCc");
  const auto* tm = dynamic_cast<const core::TMarkClassifier*>(clf.get());
  ASSERT_NE(tm, nullptr);
  EXPECT_FALSE(tm->config().ica_update);
}

TEST(RegistryTest, ConstructedClassifiersFitTheExample) {
  // Cheap smoke: the two tensor methods run end-to-end via the interface.
  const hin::Hin hin = datasets::MakePaperExample();
  for (const char* name : {"T-Mark", "TensorRrCc"}) {
    auto clf = MakeClassifier(name);
    clf->Fit(hin, datasets::PaperExampleLabeledNodes());
    EXPECT_EQ(clf->Confidences().rows(), 4u);
  }
}

}  // namespace
}  // namespace tmark::baselines
