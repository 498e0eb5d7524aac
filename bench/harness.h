// Shared experiment harness for the paper-reproduction benches.
//
// Implements the paper's protocol (Section IV-A4): generate the corpus,
// draw a balanced training set, train each detector, evaluate on the held-out
// test set both unobfuscated ("Baseline" row) and re-obfuscated by each of
// the four obfuscator models, repeating `repeats` times with different seeds
// and averaging.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "ml/classifier.h"
#include "ml/metrics.h"
#include "obfuscators/obfuscator.h"

namespace jsrev::bench {

struct HarnessConfig {
  std::size_t benign_count = 450;
  std::size_t malicious_count = 450;
  std::size_t train_per_class = 300;
  int repeats = 5;            // the paper repeats 5x and averages
  std::uint64_t seed = 2023;
  core::Config jsrevealer;    // pipeline config (ablations override fields)
  // Run every detector behind the static deobfuscation pipeline: the
  // training corpus and every test condition are analyzed with deobfuscate
  // on, so all five detectors train and test on normalized inputs
  // (bench_deob measures the robustness this recovers).
  bool deobfuscate = false;
};

/// Test-set conditions: unobfuscated plus the four obfuscators.
inline const std::vector<std::string>& condition_names() {
  static const std::vector<std::string> names = {
      "Baseline", "JavaScript-Obfuscator", "Jfogs", "JSObfu", "Jshaman"};
  return names;
}

/// detector -> condition -> averaged metrics.
using ResultGrid = std::map<std::string, std::map<std::string, ml::Metrics>>;

/// A detector factory: fresh instance per repeat (seeded).
using DetectorFactory =
    std::function<std::unique_ptr<detect::Detector>(std::uint64_t seed)>;

/// Returns the five standard factories: JSRevealer + 4 baselines.
std::vector<DetectorFactory> standard_factories(const HarnessConfig& cfg);

/// JSRevealer-only factory honoring cfg.jsrevealer (for ablations).
DetectorFactory jsrevealer_factory(const HarnessConfig& cfg);

/// Obfuscates every sample of a corpus with the given obfuscator model
/// (samples whose transform fails are kept unobfuscated — rare).
dataset::Corpus obfuscate_corpus(const dataset::Corpus& corpus,
                                 obf::ObfuscatorKind kind,
                                 std::uint64_t seed);

/// Runs the full protocol for the given detectors over all conditions.
ResultGrid run_grid(const HarnessConfig& cfg,
                    const std::vector<DetectorFactory>& factories);

/// Table II's verdicts for a classifier other than the detector's own
/// forest: fits `kind` (ml::make_classifier with `seed` and `threads`) on
/// the rows `model` featurizes from `train`, then predicts each script of
/// `test` from its row. A test script that does not featurize is predicted
/// malicious, as the detector classifies it; a training script that does
/// not featurize is left out.
std::vector<int> refit_verdicts(const core::ModelView& model,
                                ml::ClassifierKind kind,
                                const dataset::Corpus& train,
                                const dataset::Corpus& test,
                                std::uint64_t seed, std::size_t threads);

/// Formats a percentage like the paper's tables ("99.4").
std::string pct(double fraction);

}  // namespace jsrev::bench
