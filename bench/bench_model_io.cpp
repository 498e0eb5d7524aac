// Gates the JSRM v4 zero-copy model artifact:
//
//   * a trusted open (map + structural validation, the steady-state path of
//     each extra serving process) must be >=10x faster than a
//     checksum-verified open of the same artifact, which touches every page
//     once (hard gate, waived under JSREV_BENCH_ASAN_RELAX — sanitizer
//     timings are instrumentation-dominated),
//   * mapped-view verdicts must be bit-identical to the trainer's over the
//     obfuscated evaluation grid, at thread widths 1, 2, and 8 (hard gate,
//     timing-independent, always enforced),
//   * resident-set growth of a trusted open is reported — the mapped pages
//     are shared page cache, so each extra serving process pays close to
//     zero private bytes.
//
// Emits BENCH_model_io.json through the shared envelope (validated by
// `jsr_stats --validate`).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "util/timer.h"

namespace {

using namespace jsrev;

constexpr double kRequiredOpenSpeedup = 10.0;

/// VmRSS of this process in bytes (0 when /proc is unavailable).
std::size_t resident_bytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  if (!(in >> total_pages >> resident_pages)) return 0;
  return resident_pages * 4096;
}

std::vector<std::string> build_eval_scripts(std::size_t per_class) {
  dataset::GeneratorConfig gc;
  gc.seed = 515151;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  scripts.reserve(corpus.samples.size() * 3);
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  const std::size_t obf_share = corpus.samples.size() / 2;
  for (auto kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < obf_share; ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 600 + i));
    }
  }
  return scripts;
}

}  // namespace

int main() {
  const std::size_t repeats = bench::env_or("JSREV_BENCH_REPEATS", 5);
  const std::size_t train_per_class = bench::env_or("JSREV_BENCH_TRAIN", 120);
  const bool relax_timing = std::getenv("JSREV_BENCH_ASAN_RELAX") != nullptr;

  // --- train once, write the artifact ------------------------------------
  dataset::GeneratorConfig gc;
  gc.seed = 515;
  gc.benign_count = train_per_class;
  gc.malicious_count = train_per_class;
  core::Config cfg;
  cfg.seed = 515;
  std::fprintf(stderr, "[bench_model_io] training on %zu+%zu scripts\n",
               gc.benign_count, gc.malicious_count);
  core::JsRevealer trainer(cfg);
  trainer.train(dataset::generate_corpus(gc));

  const std::string artifact_path = "model_io_bench.jsrm";
  trainer.save_artifact_file(artifact_path);
  std::ifstream sz(artifact_path, std::ios::binary | std::ios::ate);
  const double artifact_mb =
      static_cast<double>(sz.tellg()) / (1024.0 * 1024.0);

  std::printf("bench_model_io: %.1f MiB artifact, best of %zu repeats\n",
              artifact_mb, repeats);

  // --- open cost: checksum-verified vs trusted -----------------------------
  // Best-of-N each: a checksum-verified map (touches every page once to FNV
  // it — what a first open of an unvetted file costs) and the trusted open
  // (header + section table + index bounds only) — the steady-state path of
  // each extra serving process once the artifact has been verified at
  // publish time.
  double verified_ms = 0.0, trusted_ms = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    core::ModelView view;
    Timer t;
    view.map_file(artifact_path, /*verify_checksums=*/true);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < verified_ms) verified_ms = ms;
  }
  const std::size_t rss_before_map = resident_bytes();
  core::ModelView view;
  for (std::size_t r = 0; r < repeats; ++r) {
    core::ModelView probe;
    Timer t;
    probe.map_file(artifact_path, /*verify_checksums=*/false);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < trusted_ms) trusted_ms = ms;
  }
  view.map_file(artifact_path, /*verify_checksums=*/false);
  const std::size_t rss_after_map = resident_bytes();

  const double open_speedup = trusted_ms > 0.0 ? verified_ms / trusted_ms : 0.0;
  // Signed: the resident set can shrink between the two samples.
  const double map_rss_mb = (static_cast<double>(rss_after_map) -
                             static_cast<double>(rss_before_map)) /
                            (1024.0 * 1024.0);

  std::printf("open cost (best of %zu):\n", repeats);
  std::printf("  artifact verified  %9.3f ms\n", verified_ms);
  std::printf("  artifact trusted   %9.3f ms  (%.1fx vs verified, ~%.1f MiB "
              "private)\n",
              trusted_ms, open_speedup, map_rss_mb);

  // --- verdict bit-identity across widths (the hard gate) -----------------
  const std::vector<std::string> scripts =
      build_eval_scripts(bench::env_or("JSREV_BENCH_CORPUS", 60));
  const std::vector<int> trainer_verdicts = trainer.classify_all(scripts);
  bool identical = true;
  for (const std::size_t threads :
       {std::size_t(1), std::size_t(2), std::size_t(8)}) {
    view.set_threads(threads);
    if (view.classify_all(scripts) != trainer_verdicts) {
      identical = false;
      std::printf("FAIL: mapped verdicts diverge at threads=%zu\n", threads);
    }
  }
  std::printf("verdict bit-identity trainer vs mapped (widths 1/2/8, %zu "
              "scripts): %s\n",
              scripts.size(), identical ? "ok" : "FAIL");

  // --- envelope -----------------------------------------------------------
  obs::JsonWriter w;
  obs::write_bench_header(w, "model_io");
  w.kv("train_per_class", static_cast<std::uint64_t>(train_per_class))
      .kv("eval_scripts", static_cast<std::uint64_t>(scripts.size()))
      .kv("repeats", static_cast<std::uint64_t>(repeats))
      .kv_fixed("artifact_mib", artifact_mb, 2)
      .kv_fixed("artifact_open_verified_ms", verified_ms, 3)
      .kv_fixed("artifact_open_trusted_ms", trusted_ms, 3)
      .kv_fixed("open_speedup_trusted", open_speedup, 2)
      .kv_fixed("mapped_private_mib_per_proc", map_rss_mb, 2)
      .kv("verdicts_bit_identical", identical)
      .kv("timing_gate_relaxed", relax_timing)
      .end_object();
  std::ofstream json("BENCH_model_io.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_model_io.json\n");

  // --- gates --------------------------------------------------------------
  if (!identical) {
    std::printf("GATE FAIL: mapped verdicts not bit-identical\n");
    return 1;
  }
  if (!relax_timing && open_speedup < kRequiredOpenSpeedup) {
    std::printf("GATE FAIL: trusted open %.1fx vs verified, need >=%.0fx\n",
                open_speedup, kRequiredOpenSpeedup);
    return 1;
  }
  std::printf("gates ok: bit-identical verdicts, trusted open %.1fx "
              "faster%s\n",
              open_speedup, relax_timing ? " (timing gate relaxed)" : "");
  return 0;
}
