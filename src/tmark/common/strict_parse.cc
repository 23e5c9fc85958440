#include "tmark/common/strict_parse.h"

#include <charconv>
#include <cmath>
#include <string>

namespace tmark {
namespace {

std::string Quoted(std::string_view token) {
  std::string out = "'";
  // Clamp hostile tokens so error messages stay one line and bounded.
  constexpr std::size_t kMaxEcho = 64;
  if (token.size() > kMaxEcho) {
    out.append(token.substr(0, kMaxEcho));
    out += "...";
  } else {
    out.append(token);
  }
  out += "'";
  return out;
}

}  // namespace

Result<std::size_t> ParseIndex(std::string_view token) {
  if (token.empty()) return ParseError("empty index token");
  // from_chars already rejects '+', whitespace, and hex prefixes for
  // unsigned parses, but a leading '-' would parse via wraparound on some
  // implementations; reject any non-digit up front.
  for (char c : token) {
    if (c < '0' || c > '9') {
      return ParseError("invalid index " + Quoted(token) +
                        " (expected digits only)");
    }
  }
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return ParseError("index " + Quoted(token) + " overflows");
  }
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return ParseError("invalid index " + Quoted(token));
  }
  return value;
}

Status CheckIndexBound(std::size_t value, std::size_t bound,
                       std::string_view what) {
  if (value < bound) return Status::Ok();
  return ParseError(std::string(what) + " " + std::to_string(value) +
                    " out of range [0, " + std::to_string(bound) + ")");
}

Result<std::size_t> ParseBoundedIndex(std::string_view token,
                                      std::size_t bound,
                                      std::string_view what) {
  TMARK_ASSIGN_OR_RETURN(const std::size_t value, ParseIndex(token));
  TMARK_RETURN_IF_ERROR(CheckIndexBound(value, bound, what));
  return value;
}

Result<double> ParseFiniteDouble(std::string_view token) {
  if (token.empty()) return ParseError("empty number token");
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), value,
      std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    // The standard leaves `value` unmodified here (libstdc++ does), so the
    // magnitude is unknowable; reject overflow and underflow alike.
    return ParseError("number " + Quoted(token) + " is out of range");
  }
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return ParseError("invalid number " + Quoted(token));
  }
  if (!std::isfinite(value)) {
    return ParseError("non-finite number " + Quoted(token));
  }
  return value;
}

Result<double> ParsePositiveFiniteDouble(std::string_view token) {
  TMARK_ASSIGN_OR_RETURN(const double value, ParseFiniteDouble(token));
  if (!(value > 0.0)) {
    return ParseError("expected a positive weight, got " + Quoted(token));
  }
  return value;
}

}  // namespace tmark
