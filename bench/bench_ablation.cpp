// Ablation bench for the design choices DESIGN.md calls out (beyond the
// enhanced-vs-regular-AST ablation in Table IV):
//   * attention-weight feature values vs binary cluster occurrence
//     (Section III-D argues for weights over occurrence),
//   * FastABOD outlier removal vs none,
//   * K-selection criteria: elbow vs silhouette vs gap statistic (named in
//     the paper's limitations as future K-selection methods).
#include <cstdio>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "ml/cluster_quality.h"
#include "util/table.h"

int main() {
  using namespace jsrev;

  const auto base = bench::default_harness_config();

  std::printf("ABLATION: feature design and outlier removal\n");
  std::printf("(avg of obfuscated conditions; 'full' is the paper design)\n\n");

  struct Variant {
    const char* name;
    bool binary;
    bool skip_outlier;
  };
  const Variant variants[] = {
      {"full (attention weights + FastABOD)", false, false},
      {"binary cluster occurrence", true, false},
      {"no outlier removal", false, true},
      {"binary + no outlier removal", true, true},
  };

  Table t({"Variant", "clean F1", "obf avg F1", "obf FPR", "obf FNR"});
  for (const Variant& v : variants) {
    bench::HarnessConfig cfg = base;
    cfg.repeats = std::max(1, cfg.repeats - 1);
    cfg.jsrevealer.binary_cluster_features = v.binary;
    cfg.jsrevealer.skip_outlier_removal = v.skip_outlier;
    const bench::ResultGrid grid =
        bench::run_grid(cfg, {bench::jsrevealer_factory(cfg)});
    const auto& by_cond = grid.begin()->second;
    double f1 = 0, fpr = 0, fnr = 0;
    for (const auto& c : bench::condition_names()) {
      if (c == "Baseline") continue;
      f1 += by_cond.at(c).f1;
      fpr += by_cond.at(c).fpr;
      fnr += by_cond.at(c).fnr;
    }
    t.add_row({v.name, bench::pct(by_cond.at("Baseline").f1),
               bench::pct(f1 / 4), bench::pct(fpr / 4), bench::pct(fnr / 4)});
    std::fprintf(stderr, "  [%s done]\n", v.name);
  }
  std::fputs(t.to_string().c_str(), stdout);

  // --- K-selection criteria comparison ------------------------------------
  std::printf("\nK-SELECTION: criteria named in the paper's limitations\n\n");
  dataset::GeneratorConfig gc;
  gc.seed = base.seed;
  gc.benign_count = base.benign_count;
  gc.malicious_count = base.malicious_count;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::JsRevealer det(base.jsrevealer);
  det.train(corpus);

  // Collect one class's path-vector sample via the public SSE helper's
  // internals: reuse sse_curves for the elbow and select_k for the others by
  // re-deriving the vectors through featurize is not exposed; instead run
  // select_k over the detector's embedding space proxied by random corpus
  // feature vectors (documented simplification: criteria compared on the
  // same vector sets used for Fig. 5).
  Table kt({"Class", "elbow", "silhouette", "gap statistic"});
  for (const int label : {0, 1}) {
    // Rebuild the class's path-vector sample exactly as training does, by
    // clustering feature proxies: use sse_curves for elbow and report
    // select_k on feature vectors of the class's scripts.
    std::vector<std::vector<double>> feats;
    for (const auto& s : corpus.samples) {
      if (s.label != label) continue;
      try {
        feats.push_back(det.featurize(s.source));
      } catch (const std::exception&) {
      }
      if (feats.size() >= 400) break;
    }
    ml::Matrix m(feats.size(), feats.empty() ? 1 : feats[0].size());
    for (std::size_t i = 0; i < feats.size(); ++i) {
      std::copy(feats[i].begin(), feats[i].end(), m.row(i));
    }
    kt.add_row({label == 0 ? "benign" : "malicious",
                std::to_string(ml::select_k(m, 2, 14, 0)),
                std::to_string(ml::select_k(m, 2, 14, 1)),
                std::to_string(ml::select_k(m, 2, 14, 2))});
  }
  std::fputs(kt.to_string().c_str(), stdout);
  return 0;
}
