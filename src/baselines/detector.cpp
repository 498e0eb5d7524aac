#include "baselines/detector.h"

#include "baselines/cujo.h"
#include "baselines/jast.h"
#include "baselines/jstap.h"
#include "baselines/zozzle.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace jsrev::detect {

analysis::AnalyzedCorpus lazy_analyses(const dataset::Corpus& corpus,
                                       js::ParseLimits limits,
                                       bool deobfuscate) {
  analysis::AnalyzedCorpus out;
  out.scripts.reserve(corpus.samples.size());
  out.labels.reserve(corpus.samples.size());
  for (const auto& s : corpus.samples) {
    out.scripts.push_back(std::make_unique<analysis::ScriptAnalysis>(
        s.source, limits, deobfuscate));
    out.labels.push_back(s.label);
  }
  return out;
}

analysis::AnalyzedCorpus analyze_corpus(const dataset::Corpus& corpus,
                                        std::size_t threads,
                                        js::ParseLimits limits,
                                        bool deobfuscate) {
  obs::Span span("detect.analyze_corpus", "detect");
  analysis::AnalyzedCorpus out = lazy_analyses(corpus, limits, deobfuscate);
  // Warm the parse in parallel; failures are values, so no item can throw.
  parallel_for_threads(threads, out.scripts.size(), [&](std::size_t i) {
    out.scripts[i]->parse_failed();
  });
  return out;
}

std::string baseline_kind_name(BaselineKind k) {
  switch (k) {
    case BaselineKind::kCujo: return "CUJO";
    case BaselineKind::kZozzle: return "ZOZZLE";
    case BaselineKind::kJast: return "JAST";
    case BaselineKind::kJstap: return "JSTAP";
  }
  return "?";
}

std::unique_ptr<Detector> make_baseline(BaselineKind kind,
                                        std::uint64_t seed) {
  switch (kind) {
    case BaselineKind::kCujo: {
      CujoConfig cfg;
      cfg.seed = seed;
      return std::make_unique<Cujo>(cfg);
    }
    case BaselineKind::kZozzle:
      return std::make_unique<Zozzle>();
    case BaselineKind::kJast: {
      JastConfig cfg;
      cfg.seed = seed;
      return std::make_unique<Jast>(cfg);
    }
    case BaselineKind::kJstap: {
      JstapConfig cfg;
      cfg.seed = seed;
      return std::make_unique<Jstap>(cfg);
    }
  }
  return nullptr;
}

}  // namespace jsrev::detect
