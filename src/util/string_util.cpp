#include "util/string_util.h"

#include <cctype>
#include <climits>
#include <cstdio>

namespace jsrev {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string replace_all(std::string s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return s;
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (true) {
    const std::size_t hit = s.find(from, pos);
    if (hit == std::string::npos) {
      out.append(s, pos, std::string::npos);
      return out;
    }
    out.append(s, pos, hit - pos);
    out.append(to);
    pos = hit + from.size();
  }
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string js_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\v': out += "\\v"; break;
      default: {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20 || u == 0x7f) {
          // Remaining control bytes (NUL included) as \xNN: emitting them
          // raw would break print→reparse, and \x00 side-steps the
          // `\0`-followed-by-digit octal ambiguity entirely.
          char buf[5];
          std::snprintf(buf, sizeof buf, "\\x%02x", u);
          out += buf;
        } else {
          out += c;
        }
        break;
      }
    }
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;  // would overflow
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool parse_size(std::string_view s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v)) return false;
  if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
    if (v > static_cast<std::uint64_t>(SIZE_MAX)) return false;
  }
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_positive_int(std::string_view s, int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v == 0 || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace jsrev
