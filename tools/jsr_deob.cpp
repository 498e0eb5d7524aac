// jsr_deob: standalone CLI for the static deobfuscation pipeline.
//
//   $ jsr_deob file.js                # normalized source on stdout
//   $ jsr_deob --stats file.js ...    # per-pass diff stats, text table
//   $ jsr_deob --json file.js ...     # machine-readable stats + source
//   $ echo 'code' | jsr_deob -        # read stdin
//
// --minify prints the normalized source minified, --max-iters N caps the
// fixpoint driver. With --stats/--json the normalized source is only
// embedded in the JSON form. Unparseable input passes through unchanged
// (parse_ok=false in the stats); the exit status is 0 either way, 2 on
// usage or I/O errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "deob/deob.h"
#include "obs/json.h"
#include "util/string_util.h"

namespace {

bool read_input(const std::string& path, std::string* out) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    *out = buf.str();
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void print_stats(const std::string& name,
                 const jsrev::deob::SourceResult& r) {
  if (!r.parse_ok) {
    std::printf("%s: parse failed (%s); passed through unchanged\n",
                name.c_str(), r.error.c_str());
    return;
  }
  std::printf(
      "%s: %d iteration%s (%s), %d change%s, %d scope analys%s, "
      "nodes %d -> %d\n",
      name.c_str(), r.pipeline.iterations,
      r.pipeline.iterations == 1 ? "" : "s",
      r.pipeline.reached_fixpoint ? "fixpoint" : "iteration cap",
      r.pipeline.total_changes, r.pipeline.total_changes == 1 ? "" : "s",
      r.pipeline.scope_analyses, r.pipeline.scope_analyses == 1 ? "is" : "es",
      r.nodes_before, r.nodes_after);
  for (const auto& p : r.pipeline.per_pass) {
    std::printf("  %-20s %d\n", p.pass.c_str(), p.changes);
  }
}

void write_json(jsrev::obs::JsonWriter& w, const std::string& name,
                const jsrev::deob::SourceResult& r) {
  w.begin_object();
  w.kv("file", name);
  w.kv("parse_ok", r.parse_ok);
  if (!r.parse_ok) {
    w.kv("error", r.error);
  } else {
    w.kv("iterations", r.pipeline.iterations);
    w.kv("reached_fixpoint", r.pipeline.reached_fixpoint);
    w.kv("total_changes", r.pipeline.total_changes);
    w.kv("scope_analyses", r.pipeline.scope_analyses);
    w.key("pass_changes").begin_object();
    for (const auto& p : r.pipeline.per_pass) w.kv(p.pass, p.changes);
    w.end_object();
    w.kv("nodes_before", r.nodes_before);
    w.kv("nodes_after", r.nodes_after);
    w.kv("fingerprint_before", r.fingerprint_before);
    w.kv("fingerprint_after", r.fingerprint_after);
    w.kv("changed", r.fingerprint_before != r.fingerprint_after);
  }
  w.kv("source", r.source);
  w.end_object();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--stats|--json] [--minify] [--max-iters N] "
               "file.js ... | -\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool stats = false;
  jsrev::deob::DeobOptions opts;
  jsrev::js::PrintStyle style = jsrev::js::PrintStyle::kPretty;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--minify") == 0) {
      style = jsrev::js::PrintStyle::kMinified;
    } else if (std::strcmp(argv[i], "--max-iters") == 0) {
      if (i + 1 >= argc ||
          !jsrev::parse_positive_int(argv[++i], &opts.max_iterations)) {
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "-") == 0) {
      files.emplace_back("-");
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) return usage(argv[0]);

  jsrev::obs::JsonWriter w;
  if (json) w.begin_array();
  for (const std::string& f : files) {
    std::string source;
    if (!read_input(f, &source)) {
      std::fprintf(stderr, "cannot read %s\n", f.c_str());
      return 2;
    }
    const jsrev::deob::SourceResult r =
        jsrev::deob::deobfuscate_source(source, {}, opts, style);
    if (json) {
      write_json(w, f, r);
    } else if (stats) {
      print_stats(f, r);
    } else {
      std::fputs(r.source.c_str(), stdout);
      if (!r.source.empty() && r.source.back() != '\n') std::fputc('\n', stdout);
    }
  }
  if (json) {
    w.end_array();
    std::fputs(w.str().c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}
