// Malware family classification bench (the paper's future-work extension):
// top-1 family accuracy on held-out malicious samples, with the confusion
// matrix across the six modeled families.
#include <cstdio>

#include "bench_config.h"
#include "core/family_classifier.h"
#include "util/string_util.h"
#include "util/table.h"

int main() {
  using namespace jsrev;

  const auto hc = bench::default_harness_config();
  dataset::GeneratorConfig gc;
  gc.seed = hc.seed;
  gc.benign_count = hc.benign_count;
  gc.malicious_count = hc.malicious_count * 2;  // families need support
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  Rng rng(hc.seed ^ 0xf00d);
  const dataset::Split split = dataset::split_corpus(
      corpus, hc.train_per_class, hc.train_per_class, rng);

  core::JsRevealer detector(hc.jsrevealer);
  std::fprintf(stderr, "training detector...\n");
  detector.train(split.train);

  core::FamilyClassifier families;
  const std::size_t used = families.train(detector, split.train);
  std::printf("FAMILY CLASSIFICATION (future-work extension)\n");
  std::printf("trained on %zu malicious samples across %zu families\n\n",
              used, families.families().size());

  const double train_acc = families.evaluate(detector, split.train);
  const double test_acc = families.evaluate(detector, split.test);
  std::printf("top-1 family accuracy: train %s%%, held-out %s%% "
              "(chance: %s%%)\n\n",
              fmt(train_acc * 100, 1).c_str(), fmt(test_acc * 100, 1).c_str(),
              fmt(100.0 / static_cast<double>(families.families().size()), 1)
                  .c_str());

  const auto confusion = families.confusion(detector, split.test);
  std::vector<std::string> header = {"true \\ predicted"};
  for (const auto& f : families.families()) header.push_back(f);
  Table t(header);
  for (std::size_t r = 0; r < confusion.size(); ++r) {
    std::vector<std::string> row = {families.families()[r]};
    for (const double v : confusion[r]) row.push_back(fmt(v * 100, 0));
    t.add_row(row);
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
