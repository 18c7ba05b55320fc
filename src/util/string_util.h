// Small string helpers shared across the kgqan codebase.

#ifndef KGQAN_UTIL_STRING_UTIL_H_
#define KGQAN_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace kgqan::util {

// Returns `s` with all ASCII letters lower-cased.
std::string ToLower(std::string_view s);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// Splits `s` on `sep` (single char); empty pieces are kept unless
// `skip_empty` is true.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool skip_empty = false);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

bool StartsWith(std::string_view s, std::string_view prefix);

// Splits a camelCase / PascalCase / snake_case identifier into lower-case
// words.  E.g. "nearestCity" -> {"nearest", "city"}, "birth_place" ->
// {"birth", "place"}.  Digit runs become their own words.
std::vector<std::string> SplitIdentifierWords(std::string_view ident);

// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits);

}  // namespace kgqan::util

#endif  // KGQAN_UTIL_STRING_UTIL_H_
