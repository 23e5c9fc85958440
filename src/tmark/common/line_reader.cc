#include "tmark/common/line_reader.h"

#include <cstring>
#include <fstream>
#include <memory>

namespace tmark {
namespace {

constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

}  // namespace

Status ForEachLine(std::istream& in, const LineFn& fn, LineStats* stats) {
  // Left uninitialized: a short file touches only the pages it fills.
  std::size_t capacity = kLineBlockBytes;
  std::unique_ptr<char[]> buffer(new char[capacity]);
  // [begin, end) is unconsumed; the '\n' search resumes at `scan`, so a
  // line carried over several reads is scanned once.
  std::size_t begin = 0, scan = 0, end = 0;
  LineStats seen;
  bool at_eof = false;
  Status status;
  while (status.ok()) {
    const char* data = buffer.get();
    const auto* newline =
        static_cast<const char*>(std::memchr(data + scan, '\n', end - scan));
    if (newline != nullptr || (at_eof && begin < end)) {
      const std::size_t stop =
          newline != nullptr ? static_cast<std::size_t>(newline - data) : end;
      status = fn(++seen.lines, std::string_view(data + begin, stop - begin));
      begin = scan = newline != nullptr ? stop + 1 : end;
      continue;
    }
    if (at_eof) break;
    // Carry the partial line to the front; it fills the whole buffer only
    // when the line is longer than a block, and only then does it grow.
    std::memmove(buffer.get(), data + begin, end - begin);
    scan = end -= begin;
    begin = 0;
    if (end == capacity) {
      std::unique_ptr<char[]> grown(new char[capacity *= 2]);
      std::memcpy(grown.get(), buffer.get(), end);
      buffer = std::move(grown);
    }
    in.read(buffer.get() + end, static_cast<std::streamsize>(capacity - end));
    const auto got = static_cast<std::size_t>(in.gcount());
    end += got;
    seen.bytes += got;
    at_eof = !in;
    if (in.bad()) {
      status = DataLossError("read failed at line " +
                             std::to_string(seen.lines));
    }
  }
  if (stats != nullptr) *stats = seen;
  return status;
}

Status ForEachRecord(std::istream& in, std::string_view header,
                     const RecordFn& fn, LineStats* stats) {
  const Status missing_header =
      ParseError("line 1: missing '" + std::string(header) + "' header");
  std::vector<std::string_view> fields;
  LineStats seen;
  LineStats& read = stats != nullptr ? *stats : seen;
  TMARK_RETURN_IF_ERROR(ForEachLine(
      in,
      [&](std::size_t line_no, std::string_view line) {
        const std::string_view stripped = StripSpace(line);
        if (line_no == 1) {
          return stripped == header ? Status::Ok() : missing_header;
        }
        if (stripped.empty() || stripped[0] == '#') return Status::Ok();
        SplitFields(stripped, &fields);
        const Status status = fn(line_no, stripped, fields);
        return status.ok() ? status : AtLine(line_no, status);
      },
      &read));
  return read.lines == 0 ? missing_header : Status::Ok();
}

std::string_view StripSpace(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

void SplitFields(std::string_view line, std::vector<std::string_view>* fields) {
  fields->clear();
  for (std::size_t i = 0, j = 0; i < line.size(); i = j) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    for (j = i; j < line.size() && !IsSpace(line[j]);) ++j;
    if (j > i) fields->push_back(line.substr(i, j - i));
  }
}

Status AtLine(std::size_t line_no, const Status& status) {
  return status.WithContext("line " + std::to_string(line_no));
}

Status SaveTextFile(const std::string& path,
                    const std::function<void(std::ostream&)>& write) {
  std::ofstream out(path);
  if (!out) return NotFoundError("cannot open " + path + " for writing");
  write(out);
  if (!out.flush()) return DataLossError("write to " + path + " failed");
  return Status::Ok();
}

void LineWriter::Flush() {
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

}  // namespace tmark
