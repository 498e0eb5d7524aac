// Small string helpers shared across the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jsrev {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double with `prec` digits after the decimal point.
std::string fmt(double v, int prec = 1);

/// Escapes a string for inclusion in a double-quoted JS string literal.
std::string js_escape(std::string_view s);

/// Checked decimal parse for CLI arguments and other untrusted numeric text:
/// `s` must be entirely ASCII digits (no sign, no whitespace, no trailing
/// garbage) and fit the target type, else returns false and leaves `*out`
/// untouched. Unlike std::stoul this never throws, and unlike strtoull it
/// never silently accepts "12abc" or returns 0 for "abc".
bool parse_u64(std::string_view s, std::uint64_t* out);

/// parse_u64 narrowed to std::size_t (rejects values that do not fit).
bool parse_size(std::string_view s, std::size_t* out);

/// parse_u64 narrowed to a positive int (rejects 0 and values > INT_MAX);
/// the shape every "count"-flavored CLI flag wants.
bool parse_positive_int(std::string_view s, int* out);

}  // namespace jsrev
