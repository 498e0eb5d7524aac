// jsr_stats: observability front door. Runs a small end-to-end evaluation
// (JSRevealer + the four baselines over a generated corpus, trained on one
// shared AnalyzedCorpus and tested on another) so every instrumented layer
// reports into the process-wide registry and tracer, then emits the
// requested artifacts:
//
//   --metrics PATH|-     full metrics JSON (Registry::to_json); "-" = stdout
//   --metrics-table      human-readable metrics table on stdout
//   --deterministic PATH width-invariant subset (Registry::deterministic_json)
//   --trace PATH         Chrome trace-event JSON of the run (load the file in
//                        Perfetto / chrome://tracing)
//   --explain FILE.JS    classify FILE.JS with provenance capture and print
//                        the VerdictProvenance record as JSON
//   --prom PATH|-        Prometheus text exposition of the run's metrics,
//                        rendered from the drained JSON snapshot through the
//                        same writer GET /metrics uses ("-" = stdout)
//   --prom-from IN.json  no evaluation: convert an existing metrics JSON
//                        snapshot (a --metrics file, a STATS frame payload)
//                        to Prometheus text on stdout
//   --validate FILE      no evaluation: check FILE is well-formed JSON and,
//                        when it carries the BENCH envelope or a traceEvents
//                        array, that the schema holds; non-JSON files are
//                        checked as Prometheus text exposition (repeatable;
//                        used by scripts/check.sh to gate emitted artifacts)
//   --scripts N          generated corpus size per class (default 60)
//   --threads N          parallel width (0 = hardware)
//   --seed N             corpus + model seed
//
// Exit status: 0 = ok, 1 = a validation failed, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace {

using namespace jsrev;

struct Options {
  std::uint64_t seed = 42;
  std::size_t scripts = 60;
  std::size_t threads = 0;
  std::string metrics_path;        // "-" = stdout
  bool metrics_table = false;
  std::string deterministic_path;
  std::string trace_path;
  std::string explain_path;
  std::string prom_path;       // "-" = stdout
  std::string prom_from_path;  // convert an existing snapshot, no evaluation
  std::vector<std::string> validate_paths;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics PATH|-] [--metrics-table] "
               "[--deterministic PATH] [--trace PATH] [--explain FILE.JS] "
               "[--prom PATH|-] [--prom-from IN.json] "
               "[--validate FILE]... [--scripts N] [--threads N] [--seed N]\n",
               argv0);
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

/// Validates one artifact: JSON well-formedness always; the BENCH envelope
/// when a "bench" member is present; the Chrome trace shape when a
/// "traceEvents" member is present.
bool validate_artifact(const std::string& path) {
  std::string text;
  if (!read_file(path, &text)) {
    std::fprintf(stderr, "jsr_stats: cannot read %s\n", path.c_str());
    return false;
  }
  std::string error;
  const auto doc = obs::json_parse(text, &error);
  const char* kind = "json";
  bool ok = true;
  if (doc == nullptr) {
    // Not JSON at all — the other artifact family we emit is Prometheus
    // text exposition (the admin smoke's /metrics fetch, --prom output).
    std::string prom_error;
    if (obs::validate_prometheus_text(text, &prom_error)) {
      std::printf("jsr_stats: %s: valid prometheus-text\n", path.c_str());
      return true;
    }
    std::fprintf(stderr,
                 "jsr_stats: %s: neither JSON (%s) nor Prometheus text "
                 "(%s)\n",
                 path.c_str(), error.c_str(), prom_error.c_str());
    return false;
  }
  if (doc->find("traceEvents") != nullptr) {
    kind = "chrome-trace";
    ok = obs::validate_chrome_trace_json(text, &error);
  } else if (doc->find("bench") != nullptr) {
    kind = "bench-envelope";
    ok = obs::validate_bench_json(text, /*expected_bench=*/{}, &error);
  }
  if (!ok) {
    std::fprintf(stderr, "jsr_stats: %s: invalid %s: %s\n", path.c_str(),
                 kind, error.c_str());
    return false;
  }
  std::printf("jsr_stats: %s: valid %s\n", path.c_str(), kind);
  return true;
}

/// Exercises every instrumented layer: trains JSRevealer and the four
/// baselines on one shared AnalyzedCorpus of a generated corpus and
/// evaluates all five over another (the parse-once path), populating the
/// registry and — when tracing is on — the span buffers.
std::unique_ptr<core::JsRevealer> run_evaluation(const Options& opt) {
  dataset::GeneratorConfig gc;
  gc.seed = opt.seed;
  gc.benign_count = opt.scripts;
  gc.malicious_count = opt.scripts;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  Rng rng(opt.seed);
  const std::size_t train_per_class = opt.scripts * 2 / 3;
  const dataset::Split split =
      dataset::split_corpus(corpus, train_per_class, train_per_class, rng);

  core::Config cfg;
  cfg.seed = opt.seed;
  cfg.threads = opt.threads;
  cfg.lint_features = true;  // exercise the lint tail's instrumentation too
  const analysis::AnalyzedCorpus train =
      detect::analyze_corpus(split.train, opt.threads);
  auto det = std::make_unique<core::JsRevealer>(cfg);
  det->train(train);

  std::vector<std::unique_ptr<detect::Detector>> baselines;
  for (const detect::BaselineKind kind : detect::kAllBaselines) {
    baselines.push_back(detect::make_baseline(kind, opt.seed));
    baselines.back()->train(train);
  }

  const analysis::AnalyzedCorpus analyzed =
      detect::analyze_corpus(split.test, opt.threads);
  const ml::Metrics m = det->evaluate(analyzed);
  std::printf("JSRevealer: acc %.3f f1 %.3f over %zu test scripts\n",
              m.accuracy, m.f1, analyzed.size());
  for (const auto& b : baselines) {
    const ml::Metrics bm = b->evaluate(analyzed);
    std::printf("%-10s: acc %.3f f1 %.3f\n", b->name().c_str(), bm.accuracy,
                bm.f1);
  }
  return det;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    if (std::strcmp(arg, "--metrics") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.metrics_path = v;
    } else if (std::strcmp(arg, "--metrics-table") == 0) {
      opt.metrics_table = true;
    } else if (std::strcmp(arg, "--deterministic") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.deterministic_path = v;
    } else if (std::strcmp(arg, "--trace") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.trace_path = v;
    } else if (std::strcmp(arg, "--explain") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.explain_path = v;
    } else if (std::strcmp(arg, "--prom") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.prom_path = v;
    } else if (std::strcmp(arg, "--prom-from") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.prom_from_path = v;
    } else if (std::strcmp(arg, "--validate") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.validate_paths.push_back(v);
    } else if (std::strcmp(arg, "--scripts") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &opt.scripts) || opt.scripts == 0) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_size(v, &opt.threads)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &opt.seed)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  if (!opt.validate_paths.empty()) {
    bool all_ok = true;
    for (const std::string& path : opt.validate_paths) {
      all_ok = validate_artifact(path) && all_ok;
    }
    return all_ok ? 0 : 1;
  }

  if (!opt.prom_from_path.empty()) {
    // Offline conversion: a drained snapshot (a --metrics file or a STATS
    // frame payload) through the same exposition writer GET /metrics uses.
    std::string json;
    if (!read_file(opt.prom_from_path, &json)) {
      std::fprintf(stderr, "jsr_stats: cannot read %s\n",
                   opt.prom_from_path.c_str());
      return 1;
    }
    std::vector<obs::MetricSample> rows;
    std::string error;
    if (!obs::samples_from_metrics_json(json, &rows, &error)) {
      std::fprintf(stderr, "jsr_stats: %s: not a metrics snapshot: %s\n",
                   opt.prom_from_path.c_str(), error.c_str());
      return 1;
    }
    std::fputs(obs::render_prometheus(rows).c_str(), stdout);
    return 0;
  }

  if (!opt.trace_path.empty()) obs::Tracer::global().set_enabled(true);

  const std::unique_ptr<core::JsRevealer> det = run_evaluation(opt);

  if (!opt.explain_path.empty()) {
    std::string source;
    if (!read_file(opt.explain_path, &source)) {
      std::fprintf(stderr, "jsr_stats: cannot read %s\n",
                   opt.explain_path.c_str());
      return 1;
    }
    const obs::VerdictProvenance prov = det->explain(source);
    std::printf("%s\n", prov.to_json().c_str());
  }

  if (!opt.metrics_path.empty()) {
    const std::string json = obs::metrics().to_json();
    if (opt.metrics_path == "-") {
      std::printf("%s\n", json.c_str());
    } else if (!write_file(opt.metrics_path, json + "\n")) {
      std::fprintf(stderr, "jsr_stats: cannot write %s\n",
                   opt.metrics_path.c_str());
      return 1;
    } else {
      std::printf("wrote %s\n", opt.metrics_path.c_str());
    }
  }
  if (!opt.deterministic_path.empty()) {
    if (!write_file(opt.deterministic_path,
                    obs::metrics().deterministic_json() + "\n")) {
      std::fprintf(stderr, "jsr_stats: cannot write %s\n",
                   opt.deterministic_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", opt.deterministic_path.c_str());
  }
  if (!opt.prom_path.empty()) {
    // One exporter, two consumers: this deliberately goes JSON snapshot →
    // samples → text, exercising the same conversion a remote STATS-frame
    // consumer would run (the admin plane renders straight off the
    // registry; the round-trip test pins both paths byte-identical).
    std::vector<obs::MetricSample> rows;
    std::string error;
    if (!obs::samples_from_metrics_json(obs::metrics().to_json(), &rows,
                                        &error)) {
      std::fprintf(stderr, "jsr_stats: metrics snapshot did not round-trip: "
                   "%s\n", error.c_str());
      return 1;
    }
    const std::string text = obs::render_prometheus(rows);
    if (opt.prom_path == "-") {
      std::fputs(text.c_str(), stdout);
    } else if (!write_file(opt.prom_path, text)) {
      std::fprintf(stderr, "jsr_stats: cannot write %s\n",
                   opt.prom_path.c_str());
      return 1;
    } else {
      std::printf("wrote %s\n", opt.prom_path.c_str());
    }
  }
  if (opt.metrics_table) {
    std::printf("%s", obs::metrics().to_table().c_str());
  }
  if (!opt.trace_path.empty()) {
    obs::Tracer::global().set_enabled(false);
    if (!write_file(opt.trace_path,
                    obs::Tracer::global().export_chrome_json() + "\n")) {
      std::fprintf(stderr, "jsr_stats: cannot write %s\n",
                   opt.trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s (load in Perfetto / chrome://tracing)\n",
                opt.trace_path.c_str());
  }
  return 0;
}
