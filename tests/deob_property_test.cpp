// Property tests for the deobfuscation pipeline over the generator corpus:
//
//   * Convergence: for every generator script s and every obfuscator model,
//     deob(obf(s)) parses and its normalized tree equals deob(s)'s
//     (ast_fingerprint identity). This is the normalizer design target —
//     both sides reduce to one canonical form.
//   * Idempotence: deob(deob(x)) == deob(x) for plain and obfuscated inputs.
//   * Verdict identity: a JsRevealer trained and classifying behind
//     Config::deobfuscate assigns obf(s) the same verdict as s, at thread
//     widths 1, 2 and 8 (the per-script normalize must not break the
//     bit-identical-parallelism guarantee).
//   * Pinned outputs: an FNV-1a digest of every normal form, printed source,
//     iteration count and per-pass change total over the corpus, plain and
//     through each obfuscator, equals the digest pinned before the pipeline
//     memoized its scope analysis.
//   * The memo's invariant: a pass that reports zero changes leaves the tree
//     untouched (same node pointers in preorder, same fingerprint), so a
//     scope analysis kept across it is still the tree's. A normal form costs
//     one analysis, and the corpus' total is pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "deob/deob.h"
#include "js/ast_compare.h"
#include "js/parser.h"
#include "js/visitor.h"
#include "obfuscators/obfuscator.h"
#include "util/hash.h"
#include "util/rng.h"

namespace {

using jsrev::deob::deobfuscate_source;
using jsrev::deob::SourceResult;

constexpr std::size_t kScriptsPerClass = 100;  // 200 scripts total

/// Clean (un-pre-obfuscated) generator scripts: the property compares each
/// script against its obfuscated form, so the baseline must be the plain
/// program.
const std::vector<std::string>& scripts() {
  static const std::vector<std::string> cached = [] {
    jsrev::dataset::GeneratorConfig gc;
    gc.seed = 20230817;
    gc.benign_count = kScriptsPerClass;
    gc.malicious_count = kScriptsPerClass;
    gc.apply_wild_obfuscation = false;
    std::vector<std::string> out;
    for (const auto& s : jsrev::dataset::generate_corpus(gc).samples) {
      out.push_back(s.source);
    }
    return out;
  }();
  return cached;
}

struct ObfCase {
  jsrev::obf::ObfuscatorKind kind;
  std::string name;
};

std::vector<ObfCase> obf_cases() {
  std::vector<ObfCase> cases;
  for (const jsrev::obf::ObfuscatorKind kind : jsrev::obf::kAllObfuscators) {
    cases.push_back({kind, jsrev::obf::obfuscator_kind_name(kind)});
  }
  return cases;
}

/// The corpus, then each obfuscator's output over it (same seeds as the
/// convergence test): the inputs the pinned digests cover.
const std::vector<std::string>& pinned_inputs() {
  static const std::vector<std::string> cached = [] {
    const auto& corpus = scripts();
    std::vector<std::string> out(corpus.begin(), corpus.end());
    for (const ObfCase& oc : obf_cases()) {
      const auto obfuscator = jsrev::obf::make_obfuscator(oc.kind);
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        out.push_back(obfuscator->obfuscate(
            corpus[i], 0x9e3779b9u + static_cast<std::uint32_t>(i)));
      }
    }
    return out;
  }();
  return cached;
}

template <typename T>
std::uint64_t fold(std::uint64_t h, const T& v) {
  return jsrev::fnv1a64_step(
      h, std::string_view(reinterpret_cast<const char*>(&v), sizeof(T)));
}

/// deobfuscate_source() of each pinned_inputs() entry.
const std::vector<SourceResult>& pinned_results() {
  static const std::vector<SourceResult> cached = [] {
    std::vector<SourceResult> out;
    for (const std::string& input : pinned_inputs()) {
      out.push_back(deobfuscate_source(input));
    }
    return out;
  }();
  return cached;
}

// FNV-1a over deobfuscate_source() of every pinned_inputs() entry, in order:
// fingerprint_after, the printed source (length, then bytes), iterations and
// each pass's change total. Computed before the pipeline cached its scope
// analysis, which must change none of these.
constexpr std::uint64_t kPinnedPipelineDigest = 0xbe5f85400362316dULL;

// PipelineResult::scope_analyses summed over the same runs.
constexpr int kPinnedScopeAnalyses = 6953;

TEST(DeobProperty, PipelineOutputsMatchPinnedDigest) {
  std::uint64_t h = jsrev::fnv1a64_begin();
  for (const SourceResult& r : pinned_results()) {
    ASSERT_TRUE(r.parse_ok);
    h = fold(h, r.fingerprint_after);
    h = fold(h, static_cast<std::uint64_t>(r.source.size()));
    h = jsrev::fnv1a64_step(h, r.source);
    h = fold(h, std::int32_t{r.pipeline.iterations});
    for (const auto& p : r.pipeline.per_pass) {
      h = fold(h, std::int32_t{p.changes});
    }
  }
  EXPECT_EQ(h, kPinnedPipelineDigest) << std::hex << "0x" << h;
}

std::vector<const jsrev::js::Node*> preorder(const jsrev::js::Node* root) {
  std::vector<const jsrev::js::Node*> out;
  jsrev::js::walk(root, [&out](const jsrev::js::Node* n) {
    out.push_back(n);
    return true;
  });
  return out;
}

TEST(DeobProperty, PassReportingNoChangeLeavesTreeUntouched) {
  const auto passes = jsrev::deob::default_passes();
  std::size_t unchanged_runs = 0;
  for (const std::string& input : pinned_inputs()) {
    for (const auto& pass : passes) {
      jsrev::js::Ast ast = jsrev::js::parse(input);
      jsrev::deob::PassContext ctx(ast);
      const std::vector<const jsrev::js::Node*> nodes = preorder(ast.root);
      const std::uint64_t fingerprint = jsrev::js::ast_fingerprint(ast.root);
      if (pass->run(ctx) != 0) continue;
      ++unchanged_runs;
      EXPECT_TRUE(preorder(ast.root) == nodes) << pass->name() << "\n" << input;
      EXPECT_EQ(jsrev::js::ast_fingerprint(ast.root), fingerprint)
          << pass->name() << "\n" << input;
    }
  }
  EXPECT_GT(unchanged_runs, 0u);
}

TEST(DeobProperty, NormalFormCostsOneScopeAnalysis) {
  int total = 0;
  for (const SourceResult& once : pinned_results()) {
    total += once.pipeline.scope_analyses;
    const SourceResult twice = deobfuscate_source(once.source);
    ASSERT_TRUE(twice.parse_ok);
    EXPECT_EQ(twice.pipeline.iterations, 1) << once.source;
    EXPECT_EQ(twice.pipeline.scope_analyses, 1) << once.source;
  }
  EXPECT_EQ(total, kPinnedScopeAnalyses);
}

TEST(DeobProperty, ObfuscatedScriptsConvergeToPlainNormalForm) {
  const auto& corpus = scripts();
  for (const ObfCase& oc : obf_cases()) {
    const auto obfuscator = jsrev::obf::make_obfuscator(oc.kind);
    int mismatches = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::string& plain = corpus[i];
      const std::string obf =
          obfuscator->obfuscate(plain, 0x9e3779b9u + static_cast<std::uint32_t>(i));

      const SourceResult d_plain = deobfuscate_source(plain);
      const SourceResult d_obf = deobfuscate_source(obf);
      ASSERT_TRUE(d_plain.parse_ok) << oc.name << " script " << i;
      ASSERT_TRUE(d_obf.parse_ok)
          << oc.name << " script " << i << ": deob(obf(s)) must parse";
      EXPECT_TRUE(d_plain.pipeline.reached_fixpoint)
          << oc.name << " script " << i;
      EXPECT_TRUE(d_obf.pipeline.reached_fixpoint)
          << oc.name << " script " << i;
      if (d_plain.fingerprint_after != d_obf.fingerprint_after) {
        ++mismatches;
        EXPECT_EQ(d_plain.fingerprint_after, d_obf.fingerprint_after)
            << oc.name << " script " << i
            << "\n--- plain normal form ---\n" << d_plain.source
            << "\n--- obf normal form ---\n" << d_obf.source;
      }
      if (mismatches >= 3) break;  // keep failure output readable
    }
    EXPECT_EQ(mismatches, 0) << oc.name;
  }
}

TEST(DeobProperty, PipelineIsIdempotent) {
  const auto& corpus = scripts();
  const auto obfuscator =
      jsrev::obf::make_obfuscator(jsrev::obf::ObfuscatorKind::kJavaScriptObfuscator);
  for (std::size_t i = 0; i < corpus.size(); i += 7) {
    for (const bool obfuscate : {false, true}) {
      const std::string input =
          obfuscate
              ? obfuscator->obfuscate(corpus[i],
                                      static_cast<std::uint32_t>(i) * 31u + 5u)
              : corpus[i];
      const SourceResult once = deobfuscate_source(input);
      ASSERT_TRUE(once.parse_ok) << "script " << i;
      const SourceResult twice = deobfuscate_source(once.source);
      ASSERT_TRUE(twice.parse_ok) << "script " << i;
      EXPECT_EQ(once.fingerprint_after, twice.fingerprint_after)
          << "script " << i << " obf=" << obfuscate << "\n--- once ---\n"
          << once.source << "\n--- twice ---\n" << twice.source;
      EXPECT_EQ(twice.pipeline.total_changes, 0)
          << "script " << i << " obf=" << obfuscate
          << ": second run must be a no-op fixpoint\n--- once ---\n"
          << once.source << "\n--- twice ---\n" << twice.source;
    }
  }
}

TEST(DeobProperty, VerdictIdentityUnderObfuscationAcrossThreadWidths) {
  // Small-but-trainable pipeline (script_analysis_test idiom), deob on.
  jsrev::dataset::GeneratorConfig gc;
  gc.seed = 77;
  gc.benign_count = 60;
  gc.malicious_count = 60;
  const jsrev::dataset::Corpus train = jsrev::dataset::generate_corpus(gc);

  const auto& corpus = scripts();
  std::vector<int> reference;  // width-1 verdicts on the plain scripts

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    jsrev::core::Config cfg;
    cfg.threads = threads;
    cfg.embed_epochs = 4;
    cfg.embedding_dim = 32;
    cfg.deobfuscate = true;
    jsrev::core::JsRevealer detector(cfg);
    detector.train(train);

    std::vector<int> plain_verdicts(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      plain_verdicts[i] = detector.classify(corpus[i]);
    }
    if (reference.empty()) {
      reference = plain_verdicts;
    } else {
      EXPECT_EQ(reference, plain_verdicts)
          << "verdicts must be width-invariant (threads=" << threads << ")";
    }

    for (const ObfCase& oc : obf_cases()) {
      const auto obfuscator = jsrev::obf::make_obfuscator(oc.kind);
      int mismatches = 0;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const std::string obf = obfuscator->obfuscate(
            corpus[i], 0x9e3779b9u + static_cast<std::uint32_t>(i));
        const int v = detector.classify(obf);
        if (v != plain_verdicts[i]) ++mismatches;
        EXPECT_EQ(v, plain_verdicts[i])
            << oc.name << " script " << i << " threads=" << threads;
        if (mismatches >= 3) break;
      }
      EXPECT_EQ(mismatches, 0) << oc.name << " threads=" << threads;
    }
  }
}

}  // namespace
