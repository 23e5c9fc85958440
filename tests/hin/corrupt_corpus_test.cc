// Runs every file in tests/hin/corrupt/ through the loaders and asserts the
// expected typed status and its exact message. The corpus is the
// regression net for the hardened I/O boundary: each file is a distinct way
// real-world input goes wrong, and the messages (which line, which error
// wins when several are present) are pinned byte for byte. The accepted
// spellings of one network under tests/hin/text/ and lines longer than a
// read block run here too. This binary carries the `sanitize` ctest label
// so all of it also runs under TMARK_SANITIZE=address builds.

#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tmark/common/line_reader.h"
#include "tmark/common/status.h"
#include "tmark/core/model_io.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"

#ifndef TMARK_TEST_DATA_DIR
#error "TMARK_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace tmark {
namespace {

std::string DataPath(const std::string& file) {
  return std::string(TMARK_TEST_DATA_DIR) + "/hin/" + file;
}

std::string CorpusPath(const std::string& file) {
  return DataPath("corrupt/" + file);
}

struct CorpusCase {
  const char* file;
  StatusCode expected;
  /// Status::ToString() without the "<path>: " context.
  const char* message;
};

// gtest prints each case into its test name ("# GetParam() = ..."); print
// the fixture file name so the name is the same on every build, rather than
// the struct's raw bytes (pointers plus padding).
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.file; }

std::string CaseName(const ::testing::TestParamInfo<CorpusCase>& info) {
  std::string name = info.param.file;
  for (char& ch : name) {
    if (ch == '.' || ch == '/') ch = '_';
  }
  return name;
}

void ExpectCorpusStatus(const CorpusCase& c, const Status& status) {
  ASSERT_FALSE(status.ok()) << c.file;
  EXPECT_EQ(status.code(), c.expected) << c.file << ": " << status.ToString();
  // Every corpus error carries the path so the user can locate the file.
  std::string text = status.ToString();
  const std::string context = CorpusPath(c.file) + ": ";
  const std::size_t at = text.find(context);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.erase(at, context.size()), c.message);
}

class CorruptHinCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorruptHinCorpusTest, YieldsExpectedStatus) {
  const CorpusCase& c = GetParam();
  ExpectCorpusStatus(c, hin::LoadHinFromFile(CorpusPath(c.file)).status());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptHinCorpusTest,
    ::testing::Values(
        CorpusCase{"bad_feat_token.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: invalid index 'one' (expected digits "
                   "only)"},
        CorpusCase{"bare_feat_out_of_range.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 8: feat node 8 out of range [0, 3)"},
        CorpusCase{"bare_label_out_of_range.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 8: label node 7 out of range [0, 3)"},
        CorpusCase{"crlf_duplicate_edge.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 7: duplicate edge (0, 1, 2)"},
        CorpusCase{"duplicate_edge.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 7: duplicate edge (0, 1, 2)"},
        CorpusCase{"duplicate_edge_groups.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 8: duplicate edge (0, 2, 1)"},
        CorpusCase{"duplicate_of_out_of_range_edge.hin",
                   StatusCode::kParseError,
                   "PARSE_ERROR: line 7: edge endpoint out of range [0, 3)"},
        CorpusCase{"duplicate_then_out_of_range_edge.hin",
                   StatusCode::kParseError,
                   "PARSE_ERROR: line 7: duplicate edge (0, 1, 2)"},
        CorpusCase{"empty.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 1: missing '# tmark-hin v1' header"},
        CorpusCase{"feat_error_before_label_error.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 9: label class 4 out of range [0, 1)"},
        CorpusCase{"hostile_dimensions.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 2: nodes 999999999999999 exceeds the "
                   "supported maximum"},
        CorpusCase{"max_feat_dim.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: feature dim 18446744073709551615 out "
                   "of range [0, 2)"},
        CorpusCase{"max_label_class.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: label class 18446744073709551615 out "
                   "of range [0, 1)"},
        CorpusCase{"nan_weight.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: non-finite number 'nan'"},
        CorpusCase{"negative_weight.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: expected a positive weight, got "
                   "'-0.5'"},
        CorpusCase{"out_of_range_edge.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: edge endpoint out of range [0, 3)"},
        CorpusCase{"out_of_range_then_duplicate_edge.hin",
                   StatusCode::kParseError,
                   "PARSE_ERROR: line 6: edge endpoint out of range [0, 3)"},
        CorpusCase{"overflowing_index.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: index '99999999999999999999999999' "
                   "overflows"},
        CorpusCase{"token_error_after_range_error.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 9: invalid number 'x'"},
        CorpusCase{"truncated_header.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 1: missing '# tmark-hin v1' header"},
        CorpusCase{"unterminated_last_line.hin", StatusCode::kParseError,
                   "PARSE_ERROR: line 6: expected a positive weight, got "
                   "'-1'"}),
    CaseName);

class CorruptDeltaCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorruptDeltaCorpusTest, YieldsExpectedStatus) {
  const CorpusCase& c = GetParam();
  ExpectCorpusStatus(c,
                     hin::LoadHinDeltaFromFile(CorpusPath(c.file)).status());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptDeltaCorpusTest,
    ::testing::Values(
        CorpusCase{"delta_bad_header.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 1: missing '# tmark-delta v1' header"},
        CorpusCase{"delta_duplicate_op.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 3: duplicate edge op on (0, 1, 0)"},
        CorpusCase{"delta_nan_weight.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 2: non-finite number 'nan'"},
        CorpusCase{"delta_negative_weight.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 2: expected a positive weight, got "
                   "'-2.5'"},
        CorpusCase{"delta_overflowing_index.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 2: index "
                   "'123456789012345678901234567890' overflows"},
        CorpusCase{"delta_unknown_directive.delta", StatusCode::kParseError,
                   "PARSE_ERROR: line 3: unknown directive 'upsert_edge'"}),
    CaseName);

class CorruptModelCorpusTest : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorruptModelCorpusTest, YieldsExpectedStatus) {
  const CorpusCase& c = GetParam();
  ExpectCorpusStatus(
      c, core::LoadTMarkModelFromFile(CorpusPath(c.file)).status());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptModelCorpusTest,
    ::testing::Values(
        CorpusCase{"model_bad_alpha.tmm", StatusCode::kParseError,
                   "PARSE_ERROR: line 2: alpha 1.75 outside [0, 1]"},
        CorpusCase{"model_conf_before_shape.tmm",
                   StatusCode::kFailedPrecondition,
                   "FAILED_PRECONDITION: line 2: 'conf' before 'shape'"}),
    CaseName);

TEST(CorruptCorpusTest, ParseErrorsNameTheOffendingLine) {
  const Result<hin::Hin> result =
      hin::LoadHinFromFile(CorpusPath("nan_weight.hin"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 6"), std::string::npos)
      << result.status().ToString();
}

std::string SavedText(const hin::Hin& hin) {
  std::ostringstream out;
  hin::SaveHin(hin, out);
  return out.str();
}

TEST(TextSpellingTest, CrlfTabsAndMissingFinalNewlineLoadLikeLf) {
  const Result<hin::Hin> lf = hin::LoadHinFromFile(DataPath("text/lf.hin"));
  ASSERT_TRUE(lf.ok()) << lf.status().ToString();
  EXPECT_EQ(lf->num_nodes(), 4u);
  EXPECT_EQ(lf->relation_name(0), "co author");
  EXPECT_EQ(lf->relation(0).NumNonZeros(), 3u);
  EXPECT_EQ(lf->relation(1).NumNonZeros(), 1u);
  EXPECT_EQ(lf->labels(1), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(lf->features().NumNonZeros(), 3u);
  for (const char* file :
       {"text/crlf.hin", "text/no_trailing_newline.hin", "text/tabs.hin"}) {
    const Result<hin::Hin> other = hin::LoadHinFromFile(DataPath(file));
    ASSERT_TRUE(other.ok()) << file << ": " << other.status().ToString();
    EXPECT_EQ(SavedText(*other), SavedText(*lf)) << file;
  }
}

/// A network whose node 0 has one `feat` line of `dims` entries, longer
/// than a read block for the sizes below, followed by `tail`.
std::string LongFeatLine(std::size_t dims, const std::string& tail) {
  std::ostringstream text;
  text << "# tmark-hin v1\nnodes 2\nfeature_dim " << dims
       << "\nrelation r\nclass c\nfeat 0";
  for (std::size_t d = 0; d < dims; ++d) text << ' ' << d << ":1";
  text << tail;
  return text.str();
}

Status LoadText(const std::string& text) {
  std::istringstream in(text);
  return hin::LoadHin(in).status();
}

TEST(LongLineTest, FeatLineLongerThanABlockLoadsWhole) {
  constexpr std::size_t kDims = 200000;
  ASSERT_GT(LongFeatLine(kDims, "").size(), kLineBlockBytes);
  std::istringstream in(LongFeatLine(kDims, "\nfeat 1 5:2\n"));
  const Result<hin::Hin> hin = hin::LoadHin(in);
  ASSERT_TRUE(hin.ok()) << hin.status().ToString();
  EXPECT_EQ(hin->features().row_ptr()[1], kDims);
  EXPECT_EQ(hin->features().NumNonZeros(), kDims + 1);
  EXPECT_EQ(hin->features().At(1, 5), 2.0);
}

TEST(LongLineTest, ErrorsOnAndAfterALongLineNameTheirLine) {
  constexpr std::size_t kDims = 200000;
  EXPECT_EQ(LoadText(LongFeatLine(kDims, " 7:bad\nfeat 1 5:2\n")).ToString(),
            "PARSE_ERROR: line 6: invalid number 'bad'");
  EXPECT_EQ(
      LoadText(LongFeatLine(kDims, "\nfeat 1 5:2\nfeat 1 x\n")).ToString(),
      "PARSE_ERROR: line 8: malformed feat token 'x' (expected "
      "<dim>:<value>)");
}

}  // namespace
}  // namespace tmark
