#include "lint/report.h"

#include <array>

#include "obs/json.h"
#include "util/string_util.h"

namespace jsrev::lint {
namespace {

using obs::json_escape;

void append_summary_json(const LintResult& r, std::string* out) {
  const std::vector<double> f = lint_feature_vector(r);
  const std::vector<std::string>& names = lint_feature_names();
  *out += "{";
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (i != 0) *out += ",";
    *out += "\"" + names[i] + "\":" + fmt(f[i], 1);
  }
  *out += "}";
}

}  // namespace

std::string render_text(const std::vector<NamedResult>& results) {
  std::string out;
  std::array<std::size_t, kSeverityCount> totals{};
  std::size_t parse_failures = 0;
  for (const NamedResult& nr : results) {
    if (nr.result.parse_failed) {
      parse_failures++;
      out += nr.name + ": parse error: " + nr.result.parse_error + "\n";
      continue;
    }
    for (const Diagnostic& d : nr.result.diagnostics) {
      totals[static_cast<std::size_t>(d.severity)]++;
      out += nr.name + ":" + std::to_string(d.line) + ": " +
             std::string(severity_name(d.severity)) + " [" + d.rule_id + "/" +
             d.rule_name + "] " + d.message;
      if (!d.excerpt.empty()) out += "\n    " + d.excerpt;
      out += "\n";
    }
  }
  out += "\n" + std::to_string(results.size()) + " input(s), " +
         std::to_string(parse_failures) + " parse failure(s), " +
         std::to_string(totals[2]) + " error(s), " +
         std::to_string(totals[1]) + " warning(s), " +
         std::to_string(totals[0]) + " info\n";
  return out;
}

std::string render_json(const std::vector<NamedResult>& results) {
  std::string out = "{\"inputs\":[";
  std::array<std::size_t, kSeverityCount> totals{};
  std::size_t parse_failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const NamedResult& nr = results[i];
    if (i != 0) out += ",";
    out += "{\"name\":\"" + json_escape(nr.name) + "\",\"parse_failed\":";
    out += nr.result.parse_failed ? "true" : "false";
    if (nr.result.parse_failed) {
      parse_failures++;
      out += ",\"parse_error\":\"" + json_escape(nr.result.parse_error) + "\"";
    }
    out += ",\"diagnostics\":[";
    for (std::size_t j = 0; j < nr.result.diagnostics.size(); ++j) {
      const Diagnostic& d = nr.result.diagnostics[j];
      totals[static_cast<std::size_t>(d.severity)]++;
      if (j != 0) out += ",";
      out += "{\"rule_id\":\"" + json_escape(d.rule_id) + "\"";
      out += ",\"rule_name\":\"" + json_escape(d.rule_name) + "\"";
      out += ",\"severity\":\"" + std::string(severity_name(d.severity)) + "\"";
      out += ",\"category\":\"" + std::string(category_name(d.category)) + "\"";
      out += ",\"line\":" + std::to_string(d.line);
      out += ",\"node_kind\":\"" + json_escape(d.node_kind) + "\"";
      out += ",\"message\":\"" + json_escape(d.message) + "\"";
      out += ",\"excerpt\":\"" + json_escape(d.excerpt) + "\"}";
    }
    out += "],\"summary\":";
    append_summary_json(nr.result, &out);
    out += "}";
  }
  out += "],\"totals\":{\"inputs\":" + std::to_string(results.size());
  out += ",\"parse_failures\":" + std::to_string(parse_failures);
  out += ",\"errors\":" + std::to_string(totals[2]);
  out += ",\"warnings\":" + std::to_string(totals[1]);
  out += ",\"infos\":" + std::to_string(totals[0]);
  out += "}}";
  return out;
}

}  // namespace jsrev::lint
