#ifndef TMARK_HIN_HIN_IO_H_
#define TMARK_HIN_HIN_IO_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

#include "tmark/common/status.h"
#include "tmark/hin/hin.h"

namespace tmark::hin {

/// Serializes `hin` to a line-oriented text format:
///
///   # tmark-hin v1
///   nodes <n>
///   feature_dim <d>
///   relation <name>            (repeated, in index order)
///   class <name>               (repeated, in index order)
///   edge <k> <dst> <src> <w>   (one per stored tensor entry)
///   label <node> <c> [<c> ...]
///   feat <node> <dim>:<value> [<dim>:<value> ...]
///
/// The format is diff-friendly and round-trips exactly for the weights
/// produced by the library's generators.
void SaveHin(const Hin& hin, std::ostream& out);

/// Writes the SaveHin format to `path`. Returns kNotFound when the file
/// cannot be created and kDataLoss when the write fails midway.
Status SaveHinToFile(const Hin& hin, const std::string& path);

/// Parses the format written by SaveHin. This is an untrusted-input
/// boundary: every malformed construct — missing header, unknown
/// directive, non-numeric or overflowing index, NaN/inf/non-positive edge
/// weight, duplicate (relation, dst, src) edge, out-of-range node/class/
/// feature index — yields a kParseError whose message carries the
/// offending line number. Never throws on bad input.
Result<Hin> LoadHin(std::istream& in);

/// LoadHin from `path`; kNotFound when the file cannot be opened, and the
/// path is prepended as context to any parse error.
Result<Hin> LoadHinFromFile(const std::string& path);

/// Parses a `feat` token <dim>:<value> with a finite, non-negative value,
/// as the tmark-hin and tmark-delta parsers read it; kParseError naming
/// the token otherwise.
Result<std::pair<std::size_t, double>> ParseFeatureEntry(
    std::string_view token);

}  // namespace tmark::hin

#endif  // TMARK_HIN_HIN_IO_H_
