// Table II reproduction: JSRevealer's final classifier sweep (SVM, logistic
// regression, decision tree, Gaussian naive Bayes, random forest) trained
// and tested on unobfuscated data.
//
// The five classifiers differ only in the last step of the pipeline, so each
// repeat trains one JSRevealer: its own random forest gives the RandomForest
// row, and the other four are refitted on the rows the trained model
// featurizes from the same training set (bench::refit_verdicts).
#include <cstdio>
#include <map>

#include "bench_config.h"
#include "util/table.h"

int main() {
  using namespace jsrev;

  bench::HarnessConfig cfg = bench::default_harness_config();
  // Table II uses the elbow K values (7/4); Table III refines them later.
  cfg.jsrevealer.k_benign = 7;
  cfg.jsrevealer.k_malicious = 4;
  const ml::ClassifierKind kinds[] = {
      ml::ClassifierKind::kSvm, ml::ClassifierKind::kLogisticRegression,
      ml::ClassifierKind::kDecisionTree,
      ml::ClassifierKind::kGaussianNaiveBayes,
      ml::ClassifierKind::kRandomForest};

  std::printf("TABLE II: classifier choice on unobfuscated data "
              "(K_benign=7, K_malicious=4 as the paper's elbow values)\n");
  std::printf("paper: all close; random forest best (acc 99.4 / F1 99.4)\n\n");

  std::map<ml::ClassifierKind, std::vector<ml::Metrics>> runs;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const std::uint64_t seed =
        cfg.seed + static_cast<std::uint64_t>(rep) * 7919;
    dataset::GeneratorConfig gc;
    gc.seed = seed;
    gc.benign_count = cfg.benign_count;
    gc.malicious_count = cfg.malicious_count;
    const dataset::Corpus corpus = dataset::generate_corpus(gc);
    Rng rng(seed ^ 0xabcdef);
    const dataset::Split split = dataset::split_corpus(
        corpus, cfg.train_per_class, cfg.train_per_class, rng);
    const dataset::Corpus test = dataset::balance(split.test, rng);

    core::Config c = cfg.jsrevealer;
    c.seed = seed;
    core::JsRevealer det(c);
    det.train(split.train);
    std::vector<int> truth;
    for (const auto& s : test.samples) truth.push_back(s.label);
    for (const auto kind : kinds) {
      runs[kind].push_back(
          kind == ml::ClassifierKind::kRandomForest
              ? det.evaluate(test)
              : ml::compute_metrics(
                    truth, bench::refit_verdicts(det, kind, split.train, test,
                                                 seed, c.threads)));
    }
    std::fprintf(stderr, "  [rep %d/%d]\n", rep + 1, cfg.repeats);
  }

  Table t({"Classifier", "Accuracy", "F1", "FPR", "FNR"});
  for (const auto kind : kinds) {
    const ml::Metrics m = ml::average_metrics(runs[kind]);
    t.add_row({ml::classifier_kind_name(kind), bench::pct(m.accuracy),
               bench::pct(m.f1), bench::pct(m.fpr), bench::pct(m.fnr)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
