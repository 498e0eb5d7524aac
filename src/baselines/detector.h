// Common interface for full-script malicious-JavaScript detectors
// (JSRevealer and the four comparison baselines).
//
// A detector has one virtual train and one virtual classify, and both read
// analysis::ScriptAnalysis objects: train an AnalyzedCorpus, classify one
// ScriptAnalysis. The source-taking train and classify are non-virtual
// wrappers that analyze with the detector's own frontend, so a corpus or a
// script enters as text in exactly one place.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/script_analysis.h"
#include "dataset/corpus.h"
#include "js/parse_limits.h"
#include "ml/metrics.h"
#include "obs/metrics.h"

namespace jsrev::detect {

class Detector {
 public:
  virtual ~Detector() = default;

  /// Trains the detector on a labeled corpus of analyzed scripts: the one
  /// train every detector implements. Each detector forces what it reads
  /// where its own loop runs (JsRevealer's extraction fans out at its
  /// thread width, the baselines read serially), so one AnalyzedCorpus
  /// shared by several detectors parses each script once. The detector
  /// consumes the analyses as built: a caller that builds them with another
  /// frontend than the detector's (a harness normalizing every detector's
  /// input) trains on that frontend's output.
  virtual void train(const analysis::AnalyzedCorpus& corpus) = 0;

  /// Trains on sources: builds the corpus's analyses with this detector's
  /// frontend (parse_limits(), deobfuscate()), unforced, and trains on them.
  /// Subclasses keep it callable with `using Detector::train;`.
  void train(const dataset::Corpus& corpus);

  /// Classifies one analyzed script: 1 = malicious, 0 = benign. Unparseable
  /// input is conventionally classified malicious (all compared tools reject
  /// it; the convention lives in analysis::ScriptAnalysis). The one entry
  /// every detector implements; a shared analysis is never re-parsed.
  virtual int classify(const analysis::ScriptAnalysis& analysis) const = 0;

  /// Classifies one source: analyzes it with this detector's frontend
  /// (parse_limits(), deobfuscate()) and classifies the analysis. Subclasses
  /// keep it callable with `using Detector::classify;`.
  int classify(const std::string& source) const {
    return classify(
        analysis::ScriptAnalysis(source, parse_limits_, deobfuscate_));
  }

  /// The frontend train(corpus) and classify(source) run. A ScriptAnalysis
  /// built with these classifies bit-identically to classify(source). The
  /// baselines run the defaults; JsRevealer sets deobfuscate from its
  /// Config, a model artifact from its header.
  const js::ParseLimits& parse_limits() const { return parse_limits_; }
  bool deobfuscate() const { return deobfuscate_; }

  virtual std::string name() const = 0;

  /// Metrics over a labeled corpus. Virtual so detectors with a batch
  /// prediction path (JSRevealer fans out per row) can use it here.
  virtual ml::Metrics evaluate(const dataset::Corpus& corpus) const {
    std::vector<int> truth, pred;
    truth.reserve(corpus.samples.size());
    pred.reserve(corpus.samples.size());
    for (const auto& s : corpus.samples) {
      truth.push_back(s.label);
      pred.push_back(classify(s.source));
    }
    return ml::compute_metrics(truth, pred);
  }

  /// Metrics over a pre-analyzed corpus (the parse-once path: the harness
  /// analyzes each condition once and hands the same AnalyzedCorpus to
  /// every detector of a multi-detector table).
  virtual ml::Metrics evaluate(const analysis::AnalyzedCorpus& corpus) const {
    std::vector<int> pred;
    pred.reserve(corpus.size());
    for (const auto& script : corpus.scripts) {
      pred.push_back(classify(*script));
    }
    return ml::compute_metrics(corpus.labels, pred);
  }

 protected:
  /// Books one verdict into detector.verdicts{detector=name(),verdict=...}
  /// and returns it unchanged, so classify() bodies end with
  /// `return record_verdict(...)`. Counter handles resolve on first use
  /// (name() is not callable from the constructor) and are cached per
  /// detector instance.
  int record_verdict(int verdict) const {
    auto& slot = verdict == 0 ? benign_count_ : malicious_count_;
    obs::Counter* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) {
      // Racing initializers all receive the same registry handle, so the
      // store order is immaterial.
      c = obs::metrics().counter(
          "detector.verdicts",
          {{"detector", name()},
           {"verdict", verdict == 0 ? "benign" : "malicious"}});
      slot.store(c, std::memory_order_release);
    }
    c->add();
    return verdict;
  }

  // The frontend of train(corpus) and classify(source); JsRevealer's
  // constructor sets deobfuscate_ from Config::deobfuscate, ModelView's
  // attach() from the artifact header.
  js::ParseLimits parse_limits_;
  bool deobfuscate_ = false;

 private:
  mutable std::atomic<obs::Counter*> benign_count_{nullptr};
  mutable std::atomic<obs::Counter*> malicious_count_{nullptr};
};

/// Builds the shared per-sample analyses of a corpus, forcing nothing: each
/// script parses on first use, by whichever consumer reaches it first.
/// `limits` bounds each script's frontend resources; a script that trips a
/// limit carries a parse failure value and classifies as malicious, like any
/// other unparseable input. With `deobfuscate` every analysis statically
/// normalizes its script through the src/deob pipeline as part of its
/// parse, so all detectors sharing the corpus consume the normalized form.
/// Detector::train(corpus) trains on these.
analysis::AnalyzedCorpus lazy_analyses(const dataset::Corpus& corpus,
                                       js::ParseLimits limits = {},
                                       bool deobfuscate = false);

/// lazy_analyses() with the parse forced in parallel at `threads` width
/// (0 = hardware concurrency), for a corpus that several detectors read.
/// Derived analyses (scopes, data flow, CFG, PDG) stay lazy: each is
/// computed at most once, by whichever consumer needs it first.
analysis::AnalyzedCorpus analyze_corpus(const dataset::Corpus& corpus,
                                        std::size_t threads = 0,
                                        js::ParseLimits limits = {},
                                        bool deobfuscate = false);

inline void Detector::train(const dataset::Corpus& corpus) {
  train(lazy_analyses(corpus, parse_limits_, deobfuscate_));
}

enum class BaselineKind { kCujo, kZozzle, kJast, kJstap };

inline constexpr BaselineKind kAllBaselines[] = {
    BaselineKind::kCujo, BaselineKind::kZozzle, BaselineKind::kJast,
    BaselineKind::kJstap};

std::string baseline_kind_name(BaselineKind k);

/// Factory. `seed` drives any stochastic training component.
std::unique_ptr<Detector> make_baseline(BaselineKind kind,
                                        std::uint64_t seed = 1);

}  // namespace jsrev::detect
