// Tables V-VI and Figs. 6-7 reproduction: JSRevealer vs the four baseline
// detectors, unobfuscated and per obfuscator. The four exhibits are views
// of one result grid, so the grid runs once and the exhibits print in
// paper order:
//   Table V   accuracy per detector and condition
//   Table VI  F1-measure per detector and condition
//   Fig. 6    FNR and FPR per detector and condition (two tables)
//   Fig. 7    average accuracy/F1/FPR/FNR across the four obfuscators
#include <cstdio>
#include <string>
#include <vector>

#include "bench_config.h"
#include "util/table.h"

namespace {

using namespace jsrev;

/// One row per detector, one column per condition, `metric` in each cell.
void print_condition_table(const bench::ResultGrid& grid,
                           double ml::Metrics::*metric) {
  std::vector<std::string> header = {"Detector"};
  for (const auto& c : bench::condition_names()) header.push_back(c);
  Table t(header);
  for (const auto& [det, by_cond] : grid) {
    std::vector<std::string> row = {det};
    for (const auto& c : bench::condition_names()) {
      row.push_back(bench::pct(by_cond.at(c).*metric));
    }
    t.add_row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
}

void print_fig7(const bench::ResultGrid& grid) {
  Table t({"Detector", "Accuracy", "F1", "FPR", "FNR"});
  for (const auto& [det, by_cond] : grid) {
    double acc = 0, f1 = 0, fpr = 0, fnr = 0;
    int n = 0;
    for (const auto& c : bench::condition_names()) {
      if (c == "Baseline") continue;
      const ml::Metrics& m = by_cond.at(c);
      acc += m.accuracy;
      f1 += m.f1;
      fpr += m.fpr;
      fnr += m.fnr;
      ++n;
    }
    t.add_row({det, bench::pct(acc / n), bench::pct(f1 / n),
               bench::pct(fpr / n), bench::pct(fnr / n)});
  }
  std::fputs(t.to_string().c_str(), stdout);
}

}  // namespace

int main() {
  const auto cfg = bench::default_harness_config();
  const bench::ResultGrid grid =
      bench::run_grid(cfg, bench::standard_factories(cfg));

  std::printf("TABLE V: accuracy (%%) per detector and obfuscator\n");
  std::printf("paper: JSRevealer 99.4/86.7/83.3/73.6/94.2; baselines drop "
              "hard on the obfuscated columns\n\n");
  print_condition_table(grid, &ml::Metrics::accuracy);

  std::printf("TABLE VI: F1-measure (%%) per detector and obfuscator\n");
  std::printf("paper: JSRevealer 99.4/88.4/81.5/75.4/94.2 — highest on "
              "every obfuscated column except JSTAP on Jshaman\n\n");
  print_condition_table(grid, &ml::Metrics::f1);

  std::printf("FIGURE 6: FNR / FPR (%%) per detector and obfuscator\n");
  std::printf("paper shape: CUJO degrades via FPR; ZOZZLE and JSTAP degrade "
              "via FNR; JAST mixed; JSRevealer bounded on both\n\n");
  std::printf("FNR:\n");
  print_condition_table(grid, &ml::Metrics::fnr);
  std::printf("\nFPR:\n");
  print_condition_table(grid, &ml::Metrics::fpr);
  std::printf("\n");

  std::printf("FIGURE 7: average metrics (%%) across the four obfuscators\n");
  std::printf("paper: avg F1 — JSRevealer 84.8 vs CUJO 63.2 / ZOZZLE 62.5 / "
              "JAST 66.1 / JSTAP 61.9\n\n");
  print_fig7(grid);
  return 0;
}
