// Tests for the parse-once ScriptAnalysis artifact and its integration with
// every detector: memoization (exactly one js::parse per script no matter
// how many consumers), the shared unparseable-input convention, and
// bit-identical verdicts between classify(source), which analyzes each call
// afresh, and a shared pre-parsed AnalyzedCorpus, across obfuscators and
// thread widths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/script_analysis.h"
#include "baselines/detector.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "js/parser.h"
#include "obfuscators/obfuscator.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace jsrev {
namespace {

// Lexes fine but does not parse (CUJO still classifies it with the model).
constexpr const char* kParseBroken = "var = ;";
// Does not even lex (unterminated string): every detector rejects it.
constexpr const char* kLexBroken = "var s = 'unterminated";

TEST(ScriptAnalysis, ParseFailureIsAValue) {
  const analysis::ScriptAnalysis a(kParseBroken);
  EXPECT_TRUE(a.parse_failed());
  EXPECT_FALSE(a.parse_error().empty());
  EXPECT_EQ(a.root(), nullptr);
  EXPECT_THROW(a.scopes(), std::logic_error);
  EXPECT_THROW(a.dataflow(), std::logic_error);
  EXPECT_THROW(a.pdg(), std::logic_error);
  EXPECT_EQ(a.classify_or_malicious([] { return 0; }),
            analysis::ScriptAnalysis::kUnparseableVerdict);
}

TEST(ScriptAnalysis, ClassifyOrMaliciousRunsFnWhenParsed) {
  const analysis::ScriptAnalysis a("var x = 1;");
  EXPECT_FALSE(a.parse_failed());
  EXPECT_EQ(a.classify_or_malicious([] { return 0; }), 0);
}

TEST(ScriptAnalysis, EveryArtifactSharesOneParse) {
  const analysis::ScriptAnalysis a(
      "function f(n) { var t = n + 1; return t * 2; } f(3);");
  const std::uint64_t before = js::parse_invocations();
  EXPECT_FALSE(a.parse_failed());
  EXPECT_NE(a.root(), nullptr);
  (void)a.scopes();
  (void)a.dataflow();
  (void)a.cfgs();
  (void)a.pdg();
  (void)a.tokens();
  EXPECT_FALSE(a.parse_failed());  // re-query: still memoized
  EXPECT_EQ(js::parse_invocations() - before, 1u);
  EXPECT_GT(a.parse_ms(), 0.0);
}

TEST(ScriptAnalysis, ConcurrentConsumersShareOneParse) {
  const analysis::ScriptAnalysis a("var x = 1; var y = x + 2; use(y);");
  const std::uint64_t before = js::parse_invocations();
  parallel_for_threads(8, 64, [&](std::size_t) {
    (void)a.dataflow();
    (void)a.cfgs();
    (void)a.pdg();
  });
  EXPECT_EQ(js::parse_invocations() - before, 1u);
}

// The parse stage times the parse alone; normalize() (deob passes, print,
// reparse) books its own stage, once, and only when deob is on.
TEST(ScriptAnalysis, DeobIsBookedApartFromParse) {
  obs::Summary* parse = obs::stage_summary("parse");
  obs::Summary* deob = obs::stage_summary("deob");
  const char* const kSource = "var k = 'ev' + 'al'; this[k]('1 + 1');";
  for (const bool deobfuscate : {true, false}) {
    const std::uint64_t parse_before = parse->count();
    const std::uint64_t deob_before = deob->count();
    const analysis::ScriptAnalysis a(kSource, {}, deobfuscate);
    ASSERT_FALSE(a.parse_failed());
    (void)a.scopes();  // a warm analysis books nothing more
    EXPECT_EQ(parse->count() - parse_before, 1u) << deobfuscate;
    EXPECT_EQ(deob->count() - deob_before, deobfuscate ? 1u : 0u)
        << deobfuscate;
    EXPECT_EQ(a.deob_ms() > 0.0, deobfuscate);
  }
}

TEST(ScriptAnalysis, TokensAreIndependentOfTheParser) {
  const analysis::ScriptAnalysis a(kParseBroken);
  const std::uint64_t before = js::parse_invocations();
  ASSERT_NE(a.tokens(), nullptr);  // lexes even though it will not parse
  EXPECT_EQ(js::parse_invocations() - before, 0u);
  EXPECT_TRUE(a.parse_failed());

  const analysis::ScriptAnalysis b(kLexBroken);
  EXPECT_EQ(b.tokens(), nullptr);
  EXPECT_TRUE(b.parse_failed());
}

TEST(ScriptAnalysis, ResourceLimitTripIsAParseFailureValue) {
  // A depth bomb must become parse_failed(), never a crash: the parser's
  // depth guard converts the would-be stack overflow into a ParseError that
  // ScriptAnalysis stores like any other unparseable input.
  std::string deep;
  deep.reserve(2 * 50000 + 8);
  for (int i = 0; i < 50000; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 50000; ++i) deep += ")";

  const analysis::ScriptAnalysis a(deep);
  EXPECT_TRUE(a.parse_failed());
  EXPECT_EQ(a.classify_or_malicious([] { return 0; }),
            analysis::ScriptAnalysis::kUnparseableVerdict);

  // Tighter per-analysis limits are honored without touching the defaults.
  js::ParseLimits tiny;
  tiny.max_source_bytes = 8;
  const analysis::ScriptAnalysis b("var xxxx = 12345;", tiny);
  EXPECT_TRUE(b.parse_failed());
}

TEST(ScriptAnalysis, DepthBombClassifiedMaliciousAtEveryThreadWidth) {
  std::string deep;
  for (int i = 0; i < 50000; ++i) deep += "(";
  deep += "1";
  for (int i = 0; i < 50000; ++i) deep += ")";

  dataset::Corpus corpus;
  corpus.samples.push_back({deep, 1, "depth-bomb", "synthetic"});
  corpus.samples.push_back({"var x = 1;", 0, "plain", "synthetic"});
  corpus.samples.push_back({kParseBroken, 1, "broken", "synthetic"});

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const analysis::AnalyzedCorpus analyzed =
        detect::analyze_corpus(corpus, threads);
    ASSERT_EQ(analyzed.size(), 3u);
    EXPECT_TRUE(analyzed.scripts[0]->parse_failed()) << threads;
    EXPECT_EQ(analyzed.scripts[0]->classify_or_malicious([] { return 0; }),
              analysis::ScriptAnalysis::kUnparseableVerdict)
        << threads;
    EXPECT_FALSE(analyzed.scripts[1]->parse_failed()) << threads;
    EXPECT_TRUE(analyzed.scripts[2]->parse_failed()) << threads;
  }
}

// ---------------------------------------------------------------------------
// Trained-detector fixtures (built once: training dominates test runtime).

core::Config small_config(std::size_t threads) {
  core::Config c;
  c.seed = 17;
  c.threads = threads;
  c.lint_features = true;  // exercise the shared lint tail
  c.embed_epochs = 4;
  c.embedding_dim = 32;
  c.cluster_sample_per_class = 200;
  return c;
}

struct SharedFixture {
  dataset::Corpus train;
  dataset::Corpus merged;  // test set + each obfuscator's transform of it
  std::unique_ptr<core::JsRevealer> jsrevealer;  // threads=1
  std::vector<std::unique_ptr<detect::Detector>> baselines;

  static const SharedFixture& instance() {
    static const SharedFixture f = [] {
      SharedFixture fx;
      dataset::GeneratorConfig gc;
      gc.seed = 77;
      gc.benign_count = 60;
      gc.malicious_count = 60;
      const dataset::Corpus corpus = dataset::generate_corpus(gc);
      Rng rng(gc.seed);
      const dataset::Split split = dataset::split_corpus(corpus, 35, 35, rng);
      fx.train = split.train;

      fx.merged = split.test;
      for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
        const auto obfuscator = obf::make_obfuscator(kind);
        Rng orng(gc.seed ^ 0x5555);
        for (const auto& s : split.test.samples) {
          dataset::Sample t = s;
          try {
            t.source = obfuscator->obfuscate(t.source, orng());
          } catch (const std::exception&) {
            // keep the original on transform failure
          }
          fx.merged.samples.push_back(std::move(t));
        }
      }

      fx.jsrevealer = std::make_unique<core::JsRevealer>(small_config(1));
      fx.jsrevealer->train(fx.train);
      for (const detect::BaselineKind kind : detect::kAllBaselines) {
        fx.baselines.push_back(detect::make_baseline(kind, gc.seed));
        fx.baselines.back()->train(fx.train);
      }
      return fx;
    }();
    return f;
  }
};

// Satellite: the "unparseable ⇒ malicious" convention is honored by all
// five detectors through one shared helper — a script no frontend accepts
// gets the same verdict everywhere.
TEST(SharedAnalysisIntegration, AllFiveDetectorsAgreeOnBrokenScript) {
  const SharedFixture& f = SharedFixture::instance();
  const analysis::ScriptAnalysis broken(kLexBroken);
  EXPECT_EQ(f.jsrevealer->classify(broken),
            analysis::ScriptAnalysis::kUnparseableVerdict);
  EXPECT_EQ(f.jsrevealer->classify(std::string(kLexBroken)),
            analysis::ScriptAnalysis::kUnparseableVerdict);
  for (const auto& d : f.baselines) {
    EXPECT_EQ(d->classify(broken),
              analysis::ScriptAnalysis::kUnparseableVerdict)
        << d->name();
    EXPECT_EQ(d->classify(std::string(kLexBroken)),
              analysis::ScriptAnalysis::kUnparseableVerdict)
        << d->name();
  }
}

// Equivalence: classify(source) (a fresh analysis per call) and
// classification of the shared AnalyzedCorpus (parsed once, in parallel) are
// bit-identical for every detector over >= 200 generated scripts spanning
// all four obfuscators, and for JSRevealer at thread widths 1, 2 and 8.
TEST(SharedAnalysisIntegration, StringAndAnalysisPathsAreBitIdentical) {
  const SharedFixture& f = SharedFixture::instance();
  ASSERT_GE(f.merged.samples.size(), 200u);

  const analysis::AnalyzedCorpus analyzed = detect::analyze_corpus(f.merged);
  std::vector<std::string> sources;
  sources.reserve(f.merged.samples.size());
  for (const auto& s : f.merged.samples) sources.push_back(s.source);

  for (const auto& d : f.baselines) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(d->classify(sources[i]), d->classify(*analyzed.scripts[i]))
          << d->name() << " script " << i;
    }
  }

  const std::vector<int> reference = f.jsrevealer->classify_all(sources);
  ASSERT_EQ(reference.size(), sources.size());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const core::JsRevealer* det = f.jsrevealer.get();
    std::unique_ptr<core::JsRevealer> local;
    if (threads != 1) {
      // Training is bit-identical at any width, so a fresh instance at this
      // width must reproduce the width-1 verdicts exactly.
      local = std::make_unique<core::JsRevealer>(small_config(threads));
      local->train(f.train);
      det = local.get();
    }
    EXPECT_EQ(det->classify_all(sources), reference) << "threads=" << threads;
    EXPECT_EQ(det->classify_all(analyzed), reference) << "threads=" << threads;
  }
}

// Acceptance: featurize() with lint features on parses exactly once — the
// lint tail rides the same ScriptAnalysis as path extraction.
TEST(SharedAnalysisIntegration, FeaturizeParsesExactlyOnce) {
  const SharedFixture& f = SharedFixture::instance();
  ASSERT_GT(f.jsrevealer->lint_feature_count(), 0u);
  const std::string& source = f.merged.samples.front().source;
  const std::uint64_t before = js::parse_invocations();
  const std::vector<double> features = f.jsrevealer->featurize(source);
  EXPECT_EQ(js::parse_invocations() - before, 1u);
  EXPECT_EQ(features.size(), f.jsrevealer->feature_count());
}

// Acceptance: a five-detector evaluation over a shared AnalyzedCorpus
// parses each script exactly once (in analyze_corpus) and never again. The
// same evaluation over the raw corpus costs four parses per script (CUJO only
// lexes), and every detector's confusion matrix is the same either way.
TEST(SharedAnalysisIntegration, MultiDetectorEvaluationParsesOncePerScript) {
  const SharedFixture& f = SharedFixture::instance();
  dataset::Corpus subset;
  subset.samples.assign(f.merged.samples.begin(),
                        f.merged.samples.begin() + 40);
  std::vector<const detect::Detector*> detectors = {f.jsrevealer.get()};
  for (const auto& d : f.baselines) detectors.push_back(d.get());
  const auto cells = [](const ml::Metrics& m) {
    return std::vector<std::size_t>{m.cm.tp, m.cm.tn, m.cm.fp, m.cm.fn};
  };

  std::vector<std::vector<std::size_t>> uncached;
  const std::uint64_t before_uncached = js::parse_invocations();
  for (const detect::Detector* d : detectors) {
    uncached.push_back(cells(d->evaluate(subset)));
  }
  EXPECT_EQ(js::parse_invocations() - before_uncached,
            4 * subset.samples.size());

  const std::uint64_t before_build = js::parse_invocations();
  const analysis::AnalyzedCorpus analyzed = detect::analyze_corpus(subset);
  EXPECT_EQ(js::parse_invocations() - before_build, subset.samples.size());

  const std::uint64_t before_eval = js::parse_invocations();
  for (std::size_t i = 0; i < detectors.size(); ++i) {
    EXPECT_EQ(cells(detectors[i]->evaluate(analyzed)), uncached[i])
        << detectors[i]->name();
  }
  EXPECT_EQ(js::parse_invocations() - before_eval, 0u);
}

}  // namespace
}  // namespace jsrev
