// Table IV robustness recovery: every detector per obfuscator, with the
// static deobfuscation pipeline off versus on.
//
// The paper's Table IV shows obfuscation collapsing the baselines (CUJO,
// ZOZZLE, JAST, JSTAP) while JSRevealer stays robust. This bench measures how
// much of that lost accuracy the src/deob normalization pipeline recovers
// when it runs in front of *all five* detectors (HarnessConfig::deobfuscate):
// the training corpus and every test condition are analyzed behind the same
// pipeline, once each, and every detector reads those analyses.
//
// Emits BENCH_deob.json (standard envelope, validated by
// `jsr_stats --validate`) with one point per detector x condition carrying
// the off/on metrics and the accuracy delta.
#include <cstdio>
#include <fstream>
#include <map>

#include "bench_config.h"
#include "obs/json.h"
#include "util/table.h"

int main() {
  using namespace jsrev;

  const auto base = bench::default_harness_config();

  std::printf("TABLE IV recovery: all detectors per obfuscator, deobfuscation "
              "pipeline off vs on\n");
  std::printf("paper: obfuscation collapses the baselines (e.g. JAST 52.4 "
              "acc under JSObfu) while JSRevealer holds; the static pipeline "
              "should claw accuracy back for the baselines\n\n");

  bench::ResultGrid grids[2];
  for (const bool deob : {false, true}) {
    bench::HarnessConfig cfg = base;
    cfg.deobfuscate = deob;
    std::fprintf(stderr, "[bench_deob] pipeline %s\n", deob ? "on" : "off");
    grids[deob ? 1 : 0] =
        bench::run_grid(cfg, bench::standard_factories(cfg));
  }
  const bench::ResultGrid& off = grids[0];
  const bench::ResultGrid& on = grids[1];

  // Acceptance summary: obfuscated conditions where a baseline (non-
  // JSRevealer) detector gains accuracy with the pipeline on.
  int recovered_cells = 0;
  std::map<std::string, int> recovered_conditions;  // obfuscator -> baselines

  Table t({"Detector", "Obfuscator", "Acc off", "Acc on", "dAcc", "F1 off",
           "F1 on"});
  obs::JsonWriter w;
  obs::write_bench_header(w, "deob");
  w.kv("corpus_per_class", static_cast<std::uint64_t>(base.benign_count))
      .kv("train_per_class", static_cast<std::uint64_t>(base.train_per_class))
      .kv("repeats", base.repeats)
      .key("points")
      .begin_array();

  for (const auto& [det, by_cond_off] : off) {
    const auto& by_cond_on = on.at(det);
    for (const auto& cond : bench::condition_names()) {
      const ml::Metrics& a = by_cond_off.at(cond);
      const ml::Metrics& b = by_cond_on.at(cond);
      const double delta = b.accuracy - a.accuracy;
      t.add_row({det, cond, bench::pct(a.accuracy), bench::pct(b.accuracy),
                 bench::pct(delta), bench::pct(a.f1), bench::pct(b.f1)});
      if (det != "JSRevealer" && cond != "Baseline" && delta > 0) {
        ++recovered_cells;
        ++recovered_conditions[cond];
      }
      w.begin_object()
          .kv("detector", det)
          .kv("condition", cond)
          .kv_fixed("accuracy_off", a.accuracy, 4)
          .kv_fixed("accuracy_on", b.accuracy, 4)
          .kv_fixed("accuracy_delta", delta, 4)
          .kv_fixed("f1_off", a.f1, 4)
          .kv_fixed("f1_on", b.f1, 4)
          .kv_fixed("fpr_on", b.fpr, 4)
          .kv_fixed("fnr_on", b.fnr, 4)
          .end_object();
    }
  }
  std::fputs(t.to_string().c_str(), stdout);

  int recovered_obfuscators = 0;
  for (const auto& [cond, n] : recovered_conditions) {
    (void)cond;
    if (n >= 2) ++recovered_obfuscators;
  }
  std::printf("\nrecovered cells (baseline x obfuscator with dAcc > 0): %d\n",
              recovered_cells);
  std::printf("obfuscators recovered for >=2 baselines: %d\n",
              recovered_obfuscators);

  w.end_array()
      .kv("recovered_cells", recovered_cells)
      .kv("recovered_obfuscators", recovered_obfuscators)
      .end_object();
  std::ofstream json("BENCH_deob.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_deob.json\n");
  return 0;
}
