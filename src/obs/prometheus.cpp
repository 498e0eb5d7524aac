#include "obs/prometheus.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/json.h"
#include "obs/log.h"

namespace jsrev::obs {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Escapes a label value per the exposition spec: \ " and newline.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string format_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  // Integral values (counter totals, bucket counts) print without exponent
  // or fraction; everything else uses round-trip %.17g-style shortening.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) break;
  }
  return buf;
}

/// Scale factor applied to every value of a metric (ms → seconds).
double unit_scale(Unit unit) { return unit == Unit::kMillis ? 1e-3 : 1.0; }

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kSummary: return "summary";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

/// Renders `{k="v",...}` with `extra` (when non-null) appended last.
std::string render_labels(const Labels& labels,
                          const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  if (extra != nullptr) {
    if (!first) out += ',';
    out += extra->first;
    out += "=\"";
    out += escape_label_value(extra->second);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string prometheus_name(std::string_view registry_name, Unit unit) {
  std::string name = "jsr_";
  for (const char c : registry_name) {
    name += name_char_ok(c) ? c : '_';
  }
  if (unit == Unit::kMillis) {
    if (name.ends_with("_ms")) name.resize(name.size() - 3);
    name += "_seconds";
  } else if (unit == Unit::kBytes) {
    if (!name.ends_with("_bytes")) name += "_bytes";
  }
  return name;
}

std::string render_prometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  std::string open_family;  // HELP/TYPE already emitted for this name
  // Family names are derived (jsr_ prefix, sanitize, _total / _seconds
  // suffixing), so two distinct registry names can land on the same family
  // — counter "x" and a metric literally named "x_total" both render as
  // jsr_x_total. Since samples are sorted by *registry* name, the repeat
  // shows up non-adjacently and would draw a second # TYPE line (or
  // duplicate series), which validate_prometheus_text rightly rejects.
  // First registry name wins a family; later colliders are dropped with a
  // comment in the exposition and a rate-limited warning.
  std::map<std::string, std::string> family_owner;  // family -> registry name
  for (const MetricSample& s : samples) {
    const std::string base = prometheus_name(s.name, s.unit);
    const std::string family =
        s.kind == MetricKind::kCounter ? base + "_total" : base;
    const double scale = unit_scale(s.unit);

    const auto [owner, inserted] = family_owner.try_emplace(family, s.name);
    if (!inserted && owner->second != s.name) {
      out += "# collision: dropped " + prometheus_name(s.name, Unit::kCount) +
             " (family " + family + " already rendered)\n";
      static LogRateLimit rate_limit(/*per_sec=*/0.1, /*burst=*/2.0);
      LogRecord(LogLevel::kWarn, "prom.family_collision", rate_limit)
          .kv("family", family)
          .kv("kept", owner->second)
          .kv("dropped", s.name);
      continue;
    }

    if (family != open_family) {
      if (!s.help.empty()) {
        std::string help;
        for (const char c : s.help) {
          if (c == '\\') help += "\\\\";
          else if (c == '\n') help += "\\n";
          else help += c;
        }
        out += "# HELP " + family + " " + help + "\n";
      }
      out += "# TYPE " + family + " " + kind_name(s.kind) + "\n";
      open_family = family;
    }

    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        out += family + render_labels(s.labels, nullptr) + " " +
               format_value(s.value * scale) + "\n";
        break;
      case MetricKind::kSummary:
        out += family + "_sum" + render_labels(s.labels, nullptr) + " " +
               format_value(s.sum * scale) + "\n";
        out += family + "_count" + render_labels(s.labels, nullptr) + " " +
               format_value(static_cast<double>(s.count)) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Cumulative le rows: our buckets are per-bucket counts with an
        // overflow tail; the exposition wants running totals plus +Inf.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < s.bounds.size(); ++b) {
          cumulative += b < s.buckets.size() ? s.buckets[b] : 0;
          const std::pair<std::string, std::string> le = {
              "le", format_value(s.bounds[b] * scale)};
          out += family + "_bucket" + render_labels(s.labels, &le) + " " +
                 format_value(static_cast<double>(cumulative)) + "\n";
        }
        const std::pair<std::string, std::string> inf = {"le", "+Inf"};
        out += family + "_bucket" + render_labels(s.labels, &inf) + " " +
               format_value(static_cast<double>(s.count)) + "\n";
        out += family + "_sum" + render_labels(s.labels, nullptr) + " " +
               format_value(s.sum * scale) + "\n";
        out += family + "_count" + render_labels(s.labels, nullptr) + " " +
               format_value(static_cast<double>(s.count)) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string render_prometheus(const Registry& registry) {
  return render_prometheus(registry.samples());
}

// ---------------------------------------------------------------------------
// Snapshot-JSON consumer

namespace {

bool parse_unit(std::string_view name, Unit* out) {
  if (name == "count") *out = Unit::kCount;
  else if (name == "ms") *out = Unit::kMillis;
  else if (name == "bytes") *out = Unit::kBytes;
  else return false;
  return true;
}

bool parse_kind(std::string_view name, MetricKind* out) {
  if (name == "counter") *out = MetricKind::kCounter;
  else if (name == "gauge") *out = MetricKind::kGauge;
  else if (name == "summary") *out = MetricKind::kSummary;
  else if (name == "histogram") *out = MetricKind::kHistogram;
  else return false;
  return true;
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// A JSON count: an integer in [0, 2^64). Anything else has no uint64 value,
/// and casting it would be undefined.
bool parse_count(const JsonValue& v, std::uint64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber || !(v.number >= 0.0) ||
      v.number >= 18446744073709551616.0 || v.number != std::floor(v.number)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v.number);
  return true;
}

}  // namespace

bool samples_from_metrics_json(std::string_view json,
                               std::vector<MetricSample>* out,
                               std::string* error) {
  std::string parse_error;
  const auto doc = json_parse(json, &parse_error);
  if (doc == nullptr) return fail(error, "malformed JSON: " + parse_error);
  const JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return fail(error, "missing \"metrics\" array");
  }

  std::vector<MetricSample> rows;
  for (const JsonValue& m : metrics->array) {
    MetricSample s;
    const JsonValue* name = m.find("name");
    const JsonValue* type = m.find("type");
    const JsonValue* unit = m.find("unit");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        type == nullptr || type->kind != JsonValue::Kind::kString ||
        unit == nullptr || unit->kind != JsonValue::Kind::kString) {
      return fail(error, "metric row missing name/type/unit");
    }
    s.name = name->string;
    if (!parse_kind(type->string, &s.kind)) {
      return fail(error, "unknown metric type '" + type->string + "'");
    }
    if (!parse_unit(unit->string, &s.unit)) {
      return fail(error, "unknown metric unit '" + unit->string + "'");
    }
    if (const JsonValue* labels = m.find("labels"); labels != nullptr) {
      if (!labels->is_object()) return fail(error, "labels must be an object");
      for (const auto& [k, v] : labels->object) {
        if (v.kind != JsonValue::Kind::kString) {
          return fail(error, "label values must be strings");
        }
        s.labels[k] = v.string;
      }
    }
    switch (s.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge: {
        const JsonValue* value = m.find("value");
        if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
          return fail(error, s.name + ": missing numeric value");
        }
        s.value = value->number;
        break;
      }
      case MetricKind::kSummary:
      case MetricKind::kHistogram: {
        const JsonValue* count = m.find("count");
        const JsonValue* sum = m.find("sum");
        if (count == nullptr || count->kind != JsonValue::Kind::kNumber) {
          return fail(error, s.name + ": missing count");
        }
        if (!parse_count(*count, &s.count)) {
          return fail(error, s.name + ": count is not an integer in [0, 2^64)");
        }
        // Deterministic snapshots omit summary sums (wall time); render 0.
        s.sum = sum != nullptr && sum->kind == JsonValue::Kind::kNumber
                    ? sum->number
                    : 0.0;
        if (s.kind == MetricKind::kHistogram) {
          const JsonValue* bounds = m.find("bounds");
          const JsonValue* buckets = m.find("buckets");
          if (bounds == nullptr || !bounds->is_array() || buckets == nullptr ||
              !buckets->is_array()) {
            return fail(error, s.name + ": missing bounds/buckets");
          }
          for (const JsonValue& b : bounds->array) {
            if (b.kind != JsonValue::Kind::kNumber) {
              return fail(error, s.name + ": non-numeric bound");
            }
            s.bounds.push_back(b.number);
          }
          for (const JsonValue& b : buckets->array) {
            if (b.kind != JsonValue::Kind::kNumber) {
              return fail(error, s.name + ": non-numeric bucket");
            }
            if (!parse_count(b, &s.buckets.emplace_back())) {
              return fail(error,
                          s.name + ": bucket is not an integer in [0, 2^64)");
            }
          }
        }
        break;
      }
    }
    rows.push_back(std::move(s));
  }

  std::sort(rows.begin(), rows.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  *out = std::move(rows);
  return true;
}

// ---------------------------------------------------------------------------
// Exposition validator

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const char c0 = name[0];
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') || c0 == '_' ||
        c0 == ':')) {
    return false;
  }
  for (const char c : name.substr(1)) {
    if (!name_char_ok(c) && c != ':') return false;
  }
  return true;
}

/// Parses one sample line into name, labels, value. Returns false on any
/// syntax error.
bool parse_sample_line(std::string_view line, std::string* name,
                       Labels* labels, double* value) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  *name = std::string(line.substr(0, i));
  if (!valid_metric_name(*name)) return false;

  labels->clear();
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t eq = i;
      while (eq < line.size() && line[eq] != '=') ++eq;
      if (eq >= line.size()) return false;
      const std::string key(line.substr(i, eq - i));
      if (!valid_metric_name(key)) return false;  // label names: same charset
      i = eq + 1;
      if (i >= line.size() || line[i] != '"') return false;
      ++i;
      std::string val;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          ++i;
          if (i >= line.size()) return false;
          if (line[i] == 'n') val += '\n';
          else val += line[i];
        } else {
          val += line[i];
        }
        ++i;
      }
      if (i >= line.size()) return false;  // unterminated value
      ++i;                                 // closing quote
      if (labels->count(key) != 0) return false;  // duplicate label
      (*labels)[key] = val;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return false;  // unterminated label set
    ++i;                                 // '}'
  }
  if (i >= line.size() || line[i] != ' ') return false;
  ++i;
  const std::string rest(line.substr(i));
  if (rest.empty()) return false;
  if (rest == "+Inf") {
    *value = HUGE_VAL;
    return true;
  }
  if (rest == "-Inf") {
    *value = -HUGE_VAL;
    return true;
  }
  if (rest == "NaN") {
    *value = NAN;
    return true;
  }
  char* end = nullptr;
  *value = std::strtod(rest.c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::string labels_key(const Labels& labels, std::string_view skip) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (k == skip) continue;
    key += k;
    key += '\x01';
    key += v;
    key += '\x02';
  }
  return key;
}

}  // namespace

bool validate_prometheus_text(std::string_view text, std::string* error) {
  std::map<std::string, std::string> family_type;  // name -> TYPE
  // Histogram bucket series, keyed by (family, non-le labels): the le-sorted
  // cumulative counts to check for monotonicity, plus sum/count presence.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> series_value;  // full series key -> value

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const auto err = [&](const std::string& what) {
      return fail(error, "line " + std::to_string(line_no) + ": " + what);
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP <name> <text>" / "# TYPE <name> <type>"; anything else after
      // '#' is a comment per the spec.
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) return err("malformed TYPE line");
        const std::string fam(rest.substr(0, sp));
        const std::string type(rest.substr(sp + 1));
        if (!valid_metric_name(fam)) return err("bad family name in TYPE");
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return err("unknown TYPE '" + type + "'");
        }
        if (family_type.count(fam) != 0) return err("duplicate TYPE for " + fam);
        family_type[fam] = type;
      } else if (line.rfind("# HELP ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string fam(rest.substr(0, sp));
        if (!valid_metric_name(fam)) return err("bad family name in HELP");
      }
      continue;
    }

    std::string name;
    Labels labels;
    double value = 0.0;
    if (!parse_sample_line(line, &name, &labels, &value)) {
      return err("unparseable sample line");
    }
    const std::string series = name + "\x03" + labels_key(labels, "");
    if (series_value.count(series) != 0) {
      return err("duplicate series " + name);
    }
    series_value[series] = value;

    // Histogram bookkeeping: attribute _bucket/_sum/_count rows to their
    // family when a histogram TYPE was declared.
    if (name.ends_with("_bucket")) {
      const std::string fam = name.substr(0, name.size() - 7);
      const auto it = family_type.find(fam);
      if (it != family_type.end() && it->second == "histogram") {
        const auto le = labels.find("le");
        if (le == labels.end()) return err(fam + "_bucket without le label");
        double bound = 0.0;
        if (le->second == "+Inf") {
          bound = HUGE_VAL;
        } else {
          char* end = nullptr;
          bound = std::strtod(le->second.c_str(), &end);
          if (end == nullptr || *end != '\0') return err("bad le value");
        }
        buckets[fam + "\x03" + labels_key(labels, "le")].emplace_back(bound,
                                                                      value);
      }
    }
  }

  // Cross-line checks: cumulative le monotonicity, +Inf == _count, and
  // _sum/_count presence for every histogram/summary family.
  for (auto& [key, series] : buckets) {
    const std::size_t sep = key.find('\x03');
    const std::string fam = key.substr(0, sep);
    std::sort(series.begin(), series.end());
    double prev_count = -1.0;
    bool saw_inf = false;
    for (const auto& [bound, count] : series) {
      if (count + 1e-9 < prev_count) {
        return fail(error, fam + ": le bucket counts not cumulative");
      }
      prev_count = count;
      if (std::isinf(bound)) saw_inf = true;
    }
    if (!saw_inf) return fail(error, fam + ": missing le=\"+Inf\" bucket");
    const std::string count_series =
        fam + "_count\x03" + key.substr(sep + 1);
    const auto count_it = series_value.find(count_series);
    if (count_it == series_value.end()) {
      return fail(error, fam + ": missing _count");
    }
    if (series.back().second != count_it->second) {
      return fail(error, fam + ": le=\"+Inf\" bucket != _count");
    }
    if (series_value.count(fam + "_sum\x03" + key.substr(sep + 1)) == 0) {
      return fail(error, fam + ": missing _sum");
    }
  }
  for (const auto& [fam, type] : family_type) {
    if (type != "summary") continue;
    bool any = false;
    for (const auto& [series, value] : series_value) {
      (void)value;
      if (series.rfind(fam + "_count\x03", 0) == 0) any = true;
    }
    if (!any) return fail(error, fam + ": summary without _count");
  }
  return true;
}

}  // namespace jsrev::obs
