#ifndef TMARK_COMMON_STRICT_PARSE_H_
#define TMARK_COMMON_STRICT_PARSE_H_

// Strict numeric parsers for untrusted text input.
//
// std::stoul / std::stod are unfit for an input boundary: they accept
// garbage suffixes ("3abc" parses as 3), silently wrap negative integers
// into huge size_t values, and happily return NaN / infinity — all of which
// would poison the column-stochastic invariants of the transition tensors
// O and R (Eqs. 6–7). These helpers parse the *entire* token or fail with a
// typed Status, check overflow, and reject non-finite doubles. They are the
// only numeric-parsing entry points the format parsers (hin_io, model_io)
// and dataset preset plumbing are allowed to use — enforced by
// scripts/check_error_policy.py.

#include <cstddef>
#include <string_view>

#include "tmark/common/status.h"

namespace tmark {

/// Parses a non-negative base-10 index. The whole token must be digits
/// (no sign, no whitespace, no hex, no exponent); values that overflow
/// std::size_t are rejected. Errors are kParseError naming the token.
Result<std::size_t> ParseIndex(std::string_view token);

/// Ok when `value` < `bound`, otherwise kParseError ("<what> 12 out of
/// range [0, 5)").
Status CheckIndexBound(std::size_t value, std::size_t bound,
                       std::string_view what);

/// ParseIndex followed by CheckIndexBound.
Result<std::size_t> ParseBoundedIndex(std::string_view token,
                                      std::size_t bound,
                                      std::string_view what);

/// Parses a finite double. The whole token must match (fixed or scientific
/// notation, optional leading '-'); "nan", "inf", values overflowing to
/// infinity, and empty tokens are all kParseError.
Result<double> ParseFiniteDouble(std::string_view token);

/// ParseFiniteDouble restricted to values > 0 — the domain of edge weights,
/// whose sign and finiteness the O/R stochasticity invariants depend on.
Result<double> ParsePositiveFiniteDouble(std::string_view token);

}  // namespace tmark

#endif  // TMARK_COMMON_STRICT_PARSE_H_
