// Detector shootout: train JSRevealer and all four baselines on the same
// corpus and compare their degradation on one chosen obfuscator — a compact
// version of the paper's RQ2 comparison you can point at any obfuscator.
//
//   $ ./examples/detector_shootout [JavaScript-Obfuscator|Jfogs|JSObfu|Jshaman]
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/detector.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace jsrev;

  obf::ObfuscatorKind target = obf::ObfuscatorKind::kJavaScriptObfuscator;
  if (argc > 1) {
    for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
      if (obf::obfuscator_kind_name(kind) == argv[1]) target = kind;
    }
  }
  const auto obfuscator = obf::make_obfuscator(target);
  std::printf("obfuscator: %s\n", obfuscator->name().c_str());

  dataset::GeneratorConfig gen_cfg;
  gen_cfg.seed = 11;
  gen_cfg.benign_count = 220;
  gen_cfg.malicious_count = 220;
  const dataset::Corpus corpus = dataset::generate_corpus(gen_cfg);
  Rng rng(13);
  const dataset::Split split = dataset::split_corpus(corpus, 150, 150, rng);
  const dataset::Corpus test = dataset::balance(split.test, rng);

  // Obfuscated copy of the test set.
  dataset::Corpus obf_test;
  Rng oseed(17);
  for (const auto& sample : test.samples) {
    dataset::Sample s = sample;
    try {
      s.source = obfuscator->obfuscate(s.source, oseed());
    } catch (const std::exception&) {
      // keep original on failure
    }
    obf_test.samples.push_back(std::move(s));
  }

  std::vector<std::unique_ptr<detect::Detector>> detectors;
  detectors.push_back(std::make_unique<core::JsRevealer>(core::Config{}));
  for (const detect::BaselineKind kind : detect::kAllBaselines) {
    detectors.push_back(detect::make_baseline(kind, 1));
  }

  // One analysis per training script, shared by all five detectors.
  const analysis::AnalyzedCorpus train = detect::analyze_corpus(split.train);

  Table t({"Detector", "clean acc", "clean F1", "obf acc", "obf F1",
           "obf FPR", "obf FNR"});
  for (const auto& det : detectors) {
    std::printf("training %s...\n", det->name().c_str());
    det->train(train);
    const ml::Metrics clean = det->evaluate(test);
    const ml::Metrics dirty = det->evaluate(obf_test);
    auto pct = [](double v) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.1f", v * 100);
      return std::string(buf);
    };
    t.add_row({det->name(), pct(clean.accuracy), pct(clean.f1),
               pct(dirty.accuracy), pct(dirty.f1), pct(dirty.fpr),
               pct(dirty.fnr)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
