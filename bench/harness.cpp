#include "harness.h"

#include <cstdio>

#include "deob/deob.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace jsrev::bench {

std::string pct(double fraction) { return fmt(fraction * 100.0, 1); }

dataset::Corpus obfuscate_corpus(const dataset::Corpus& corpus,
                                 obf::ObfuscatorKind kind,
                                 std::uint64_t seed) {
  const auto obfuscator = obf::make_obfuscator(kind);
  dataset::Corpus out;
  out.samples.reserve(corpus.samples.size());
  Rng rng(seed);
  for (const auto& sample : corpus.samples) {
    dataset::Sample s = sample;
    try {
      s.source = obfuscator->obfuscate(s.source, rng());
    } catch (const std::exception&) {
      // Keep the original on transform failure (mirrors real tool crashes).
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

DetectorFactory jsrevealer_factory(const HarnessConfig& cfg) {
  const core::Config base = cfg.jsrevealer;
  return [base](std::uint64_t seed) {
    core::Config c = base;
    c.seed = seed;
    return std::make_unique<core::JsRevealer>(c);
  };
}

std::vector<DetectorFactory> standard_factories(const HarnessConfig& cfg) {
  std::vector<DetectorFactory> factories;
  factories.push_back(jsrevealer_factory(cfg));
  for (const detect::BaselineKind kind : detect::kAllBaselines) {
    factories.push_back([kind](std::uint64_t seed) {
      return detect::make_baseline(kind, seed);
    });
  }
  return factories;
}

ResultGrid run_grid(const HarnessConfig& cfg,
                    const std::vector<DetectorFactory>& factories) {
  // detector -> condition -> per-repeat metrics.
  std::map<std::string, std::map<std::string, std::vector<ml::Metrics>>> runs;

  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(rep) * 7919;

    dataset::GeneratorConfig gc;
    gc.seed = seed;
    gc.benign_count = cfg.benign_count;
    gc.malicious_count = cfg.malicious_count;
    const dataset::Corpus corpus = dataset::generate_corpus(gc);

    Rng rng(seed ^ 0xabcdef);
    dataset::Split split = dataset::split_corpus(
        corpus, cfg.train_per_class, cfg.train_per_class, rng);
    const dataset::Corpus test = dataset::balance(split.test, rng);
    if (cfg.deobfuscate) {
      // Level the field for all five detectors: the string-trained
      // baselines have no per-script analysis hook, so the training corpus
      // itself is normalized (JSRevealer would also normalize internally
      // via Config::deobfuscate; the sources it receives here are already
      // in normal form, which makes that a no-op second pass).
      for (auto& s : split.train.samples) {
        s.source = deob::deobfuscate_source(s.source).source;
      }
    }

    // Pre-compute the five test-set conditions once per repeat, then build
    // each condition's shared analyses (parallel parse) exactly once — every
    // detector of this repeat evaluates against the same AnalyzedCorpus, so
    // a test script is parsed once total rather than once per detector.
    std::vector<dataset::Corpus> conditions;
    conditions.push_back(test);
    for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
      conditions.push_back(obfuscate_corpus(test, kind, seed ^ 0x5555));
    }
    std::vector<analysis::AnalyzedCorpus> analyzed;
    analyzed.reserve(conditions.size());
    for (const dataset::Corpus& condition : conditions) {
      analyzed.push_back(detect::analyze_corpus(
          condition, cfg.jsrevealer.threads, {}, cfg.deobfuscate));
    }

    for (const auto& factory : factories) {
      auto detector = factory(seed);
      detector->train(split.train);
      for (std::size_t c = 0; c < analyzed.size(); ++c) {
        runs[detector->name()][condition_names()[c]].push_back(
            detector->evaluate(analyzed[c]));
      }
      std::fprintf(stderr, "  [rep %d/%d] %s done\n", rep + 1, cfg.repeats,
                   detector->name().c_str());
    }
  }

  ResultGrid grid;
  for (const auto& [det, by_cond] : runs) {
    for (const auto& [cond, metrics] : by_cond) {
      grid[det][cond] = ml::average_metrics(metrics);
    }
  }
  return grid;
}

std::vector<int> refit_verdicts(const core::ModelView& model,
                                ml::ClassifierKind kind,
                                const dataset::Corpus& train,
                                const dataset::Corpus& test,
                                std::uint64_t seed, std::size_t threads) {
  const auto rows = [&](const dataset::Corpus& corpus,
                        std::vector<std::size_t>* used) {
    std::vector<const dataset::Sample*> samples;
    samples.reserve(corpus.samples.size());
    for (const auto& s : corpus.samples) samples.push_back(&s);
    return model.featurize_rows(samples, model.threads(), used);
  };
  std::vector<std::size_t> used;
  const ml::Matrix x = rows(train, &used);
  std::vector<int> y;
  y.reserve(used.size());
  for (const std::size_t i : used) y.push_back(train.samples[i].label);
  const auto classifier = ml::make_classifier(kind, seed, threads);
  classifier->fit(x, y);

  const ml::Matrix x_test = rows(test, &used);
  std::vector<int> verdicts(test.samples.size(), 1);  // no row: malicious
  for (std::size_t r = 0; r < used.size(); ++r) {
    verdicts[used[r]] = classifier->predict(x_test.row(r));
  }
  return verdicts;
}

}  // namespace jsrev::bench
