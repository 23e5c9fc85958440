#include "tmark/common/line_reader.h"

#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace tmark {
namespace {

/// Every (line_no, line) ForEachLine hands out for `text`.
std::vector<std::pair<std::size_t, std::string>> Lines(
    const std::string& text, LineStats* stats = nullptr) {
  std::istringstream in(text);
  std::vector<std::pair<std::size_t, std::string>> out;
  const Status status = ForEachLine(
      in,
      [&](std::size_t line_no, std::string_view line) {
        out.emplace_back(line_no, std::string(line));
        return Status::Ok();
      },
      stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

/// What std::getline yields for `text`, numbered from 1.
std::vector<std::pair<std::size_t, std::string>> GetlineLines(
    const std::string& text) {
  std::istringstream in(text);
  std::vector<std::pair<std::size_t, std::string>> out;
  std::string line;
  while (std::getline(in, line)) out.emplace_back(out.size() + 1, line);
  return out;
}

TEST(LineReaderTest, SplitsLikeGetline) {
  for (const std::string& text : std::vector<std::string>{
           "", "\n", "a", "a\n", "a\nb", "a\nb\n", "\n\nx\n\n", "a\r\nb\r\n",
           std::string("nul\0byte\n", 9)}) {
    EXPECT_EQ(Lines(text), GetlineLines(text)) << "text: " << text;
  }
}

TEST(LineReaderTest, CountsLinesAndBytes) {
  LineStats stats;
  Lines("one\ntwo\nthree", &stats);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.bytes, 13u);
}

TEST(LineReaderTest, LinesCrossingBlockBoundariesArriveWhole) {
  // Short lines straddle the first block boundary; one line is longer than
  // two blocks, so the buffer has to grow while carrying it.
  std::string text;
  while (text.size() < kLineBlockBytes - 5) text += "0123456789abc\n";
  text += std::string(2 * kLineBlockBytes + 17, 'x') + "\n";
  text += "tail";
  EXPECT_EQ(Lines(text), GetlineLines(text));
}

TEST(LineReaderTest, StopsAtTheFirstError) {
  std::istringstream in("a\nb\nc\n");
  std::vector<std::string> seen;
  const Status status =
      ForEachLine(in, [&](std::size_t line_no, std::string_view line) {
        seen.emplace_back(line);
        return line_no == 2 ? ParseError("stop") : Status::Ok();
      });
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
}

TEST(LineReaderTest, ForEachRecordChecksTheHeaderAndSkipsComments) {
  std::istringstream in("# fmt v1\r\n\n# note\n  dir  a\tb \n");
  std::vector<std::vector<std::string>> records;
  const Status status = ForEachRecord(
      in, "# fmt v1",
      [&](std::size_t line_no, std::string_view stripped,
          const std::vector<std::string_view>& fields) {
        EXPECT_EQ(line_no, 4u);
        EXPECT_EQ(stripped, "dir  a\tb");
        records.emplace_back(fields.begin(), fields.end());
        return ParseError("bad");
      });
  EXPECT_EQ(status.ToString(), "PARSE_ERROR: line 4: bad");
  EXPECT_EQ(records,
            (std::vector<std::vector<std::string>>{{"dir", "a", "b"}}));

  for (const char* text : {"", "# fmt v2\n", "\n# fmt v1\n"}) {
    std::istringstream bad(text);
    EXPECT_EQ(ForEachRecord(bad, "# fmt v1",
                            [](std::size_t, std::string_view,
                               const std::vector<std::string_view>&) {
                              return Status::Ok();
                            })
                  .ToString(),
              "PARSE_ERROR: line 1: missing '# fmt v1' header");
  }
}

TEST(LineReaderTest, StripAndSplitUseTheCLocaleSpaceSet) {
  EXPECT_EQ(StripSpace(" \t\v\f\r a b \n"), "a b");
  EXPECT_EQ(StripSpace("   "), "");
  std::vector<std::string_view> fields = {"stale"};
  SplitFields("\va\fb\r\tc  ", &fields);
  EXPECT_EQ(fields, (std::vector<std::string_view>{"a", "b", "c"}));
  SplitFields("", &fields);
  EXPECT_TRUE(fields.empty());
  // Bytes outside the C-locale set are never separators.
  SplitFields("a\xa0" "b", &fields);
  EXPECT_EQ(fields.size(), 1u);
}

TEST(LineWriterTest, WritesTheBytesOfSetprecision17) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -3.0,
      42.0,
      1e15,
      1e16,
      1e17,
      123456789012345678.0,
      0.1,
      1.0 / 3.0,
      2.5e-3,
      1e-300,
      -1e-300,
      1e300,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::denorm_min() * 12345,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon()};
  std::ostringstream reference;
  reference << std::setprecision(17);
  std::ostringstream out;
  {
    LineWriter w(out);
    for (double v : values) {
      reference << v << ' ' << std::size_t{18446744073709551615u} << ' '
                << std::uint32_t{7} << ' ' << -5 << ':' << "s\n";
      w << v << ' ' << std::size_t{18446744073709551615u} << ' '
        << std::uint32_t{7} << ' ' << -5 << ':' << "s\n";
    }
  }
  EXPECT_EQ(out.str(), reference.str());
}

TEST(LineWriterTest, FlushesPastABlockAndOnDestruction) {
  std::ostringstream out;
  {
    LineWriter w(out);
    const std::string chunk(1000, 'z');
    while (out.str().empty()) w << chunk << '\n';
    EXPECT_GE(out.str().size(), kLineBlockBytes);
    w << "end" << '\n';
  }
  EXPECT_EQ(out.str().substr(out.str().size() - 4), "end\n");
}

}  // namespace
}  // namespace tmark
