#ifndef TMARK_COMMON_LINE_READER_H_
#define TMARK_COMMON_LINE_READER_H_

// Streaming reader and buffered writer under the line-oriented text formats
// (tmark-hin, tmark-delta, tmark-model). The reader reads fixed 1 MiB
// blocks and hands out each line as a view into its buffer, so parsing a
// line allocates nothing; the writer formats numbers with std::to_chars.

#include <charconv>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tmark/common/status.h"

namespace tmark {

/// Bytes per read. Only a line longer than a block grows the buffer; a
/// file is never held in memory whole.
inline constexpr std::size_t kLineBlockBytes = std::size_t{1} << 20;

struct LineStats {
  std::size_t lines = 0;
  std::size_t bytes = 0;
};

using LineFn = std::function<Status(std::size_t, std::string_view)>;
using RecordFn = std::function<Status(
    std::size_t, std::string_view, const std::vector<std::string_view>&)>;

/// Calls fn(line_no, line) on every line of `in`, split on '\n' as by
/// std::getline: line_no is 1-based, a final line without '\n' still
/// counts and an empty stream has none. Returns fn's first non-OK status
/// (which stops the pass), kDataLoss when the stream goes bad, else Ok.
/// `stats`, when given, receives the lines handed out and the bytes read.
Status ForEachLine(std::istream& in, const LineFn& fn,
                   LineStats* stats = nullptr);

/// ForEachLine over a record format: line 1 must be `header` (else
/// kParseError "line 1: missing '<header>' header"), blank and '#' lines
/// are skipped, and fn(line_no, stripped_line, fields) gets the rest, split
/// on whitespace; an error of fn comes back prefixed with "line N: ".
Status ForEachRecord(std::istream& in, std::string_view header,
                     const RecordFn& fn, LineStats* stats = nullptr);

/// `s` without leading and trailing C-locale isspace characters.
std::string_view StripSpace(std::string_view s);

/// Replaces `fields` with the runs of non-space characters of `line`.
void SplitFields(std::string_view line, std::vector<std::string_view>* fields);

/// `status` with "line N" as context, as the loaders report line errors.
Status AtLine(std::size_t line_no, const Status& status);

/// Creates `path` and hands it to `write`: kNotFound when the file cannot
/// be created, kDataLoss when a write fails.
Status SaveTextFile(const std::string& path,
                    const std::function<void(std::ostream&)>& write);

/// Buffered text writer. Integers and doubles go through std::to_chars; a
/// double is written as printf's "%.17g", the bytes `ostream <<
/// std::setprecision(17)` writes, so every finite value round-trips. The
/// buffer goes to the stream after each block and on destruction.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& out) : out_(out) {}
  ~LineWriter() { Flush(); }

  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  LineWriter& operator<<(std::string_view s) {
    buffer_.append(s);
    return *this;
  }
  LineWriter& operator<<(char c) {
    buffer_.push_back(c);
    if (c == '\n' && buffer_.size() >= kLineBlockBytes) Flush();
    return *this;
  }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  LineWriter& operator<<(T value) {
    return Append(std::to_chars(digits_, digits_ + sizeof(digits_), value));
  }
  LineWriter& operator<<(double value) {
    return Append(std::to_chars(digits_, digits_ + sizeof(digits_), value,
                                std::chars_format::general, 17));
  }

  void Flush();

 private:
  LineWriter& Append(std::to_chars_result written) {
    buffer_.append(digits_, static_cast<std::size_t>(written.ptr - digits_));
    return *this;
  }

  std::ostream& out_;
  std::string buffer_;
  char digits_[32];
};

}  // namespace tmark

#endif  // TMARK_COMMON_LINE_READER_H_
