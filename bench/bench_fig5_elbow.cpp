// Fig. 5 reproduction: elbow-method SSE curves for benign and malicious
// path-vector clustering as a function of K.
#include <cstdio>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace jsrev;

  const auto hc = bench::default_harness_config();
  dataset::GeneratorConfig gc;
  gc.benign_count = hc.benign_count;
  gc.malicious_count = hc.malicious_count;
  gc.seed = hc.seed;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::JsRevealer det(hc.jsrevealer);
  const int k_lo = 2, k_hi = 15;
  const auto [benign_sse, malicious_sse] = det.sse_curves(corpus, k_lo, k_hi);

  std::printf("FIGURE 5: elbow method, SSE vs K (bisecting k-means on path "
              "vectors)\n");
  std::printf("paper: elbow near K=7 (benign) and K=4 (malicious)\n\n");
  Table t({"K", "SSE benign", "SSE malicious"});
  for (int k = k_lo; k <= k_hi; ++k) {
    const auto i = static_cast<std::size_t>(k - k_lo);
    t.add_row({std::to_string(k), fmt(benign_sse[i], 1),
               fmt(malicious_sse[i], 1)});
  }
  std::fputs(t.to_string().c_str(), stdout);

  // Report the elbow (largest relative SSE-drop falloff point).
  auto elbow = [&](const std::vector<double>& sse) {
    int best_k = k_lo + 1;
    double best_ratio = 0.0;
    for (std::size_t i = 1; i + 1 < sse.size(); ++i) {
      const double drop_before = sse[i - 1] - sse[i];
      const double drop_after = sse[i] - sse[i + 1];
      const double ratio = drop_after > 1e-12 ? drop_before / drop_after
                                              : drop_before;
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_k = static_cast<int>(i) + k_lo;
      }
    }
    return best_k;
  };
  std::printf("\nelbow estimate: benign K≈%d, malicious K≈%d\n",
              elbow(benign_sse), elbow(malicious_sse));
  return 0;
}
