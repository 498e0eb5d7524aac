// Unit and edge-case tests for the src/deob passes: printer-round-trip
// corner cases of constant folding (-0, Infinity), pattern bail-outs
// (decoder read before rotation, free break/continue inside flattened case
// bodies), pinned per-pass normal forms (fingerprint regressions), and one
// Deobfuscator shared across threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "deob/deob.h"
#include "js/ast_compare.h"
#include "js/parser.h"
#include "js/printer.h"
#include "obfuscators/obfuscator.h"
#include "util/thread_pool.h"

namespace jsrev::deob {
namespace {

struct PassRun {
  int changes = 0;
  std::string printed;
  std::uint64_t fingerprint = 0;
};

/// Parses `source`, runs one pass over it once in a fresh PassContext, and
/// reports the result.
PassRun run_pass(std::unique_ptr<Pass> pass, const std::string& source) {
  js::Ast ast = js::parse(source);
  PassContext ctx(ast);
  PassRun out;
  out.changes = pass->run(ctx);
  out.printed = js::print(ast.root, js::PrintStyle::kPretty);
  out.fingerprint = js::ast_fingerprint(ast.root);
  return out;
}

std::uint64_t fingerprint_of(const std::string& source) {
  js::Ast ast = js::parse(source);
  js::finalize_tree(ast.root);
  return js::ast_fingerprint(ast.root);
}

/// Pinned regression: one pass applied to `input` must land exactly on the
/// tree `expected` parses to. Comparing fingerprints of both sides keeps the
/// pin stable across hash-function changes while still failing on any
/// structural drift.
void expect_pass_normal_form(std::unique_ptr<Pass> pass,
                             const std::string& input,
                             const std::string& expected) {
  const PassRun run = run_pass(std::move(pass), input);
  EXPECT_GT(run.changes, 0) << input;
  EXPECT_EQ(run.fingerprint, fingerprint_of(expected))
      << "input:\n" << input << "\ngot:\n" << run.printed
      << "\nexpected:\n" << expected;
}

// ---------------------------------------------------------------------------
// fold-constants corner cases.
// ---------------------------------------------------------------------------

TEST(DeobFold, NegativeZeroIsNeverFolded) {
  // 0 * -1 evaluates to -0, which no numeric literal spells; folding it to 0
  // would change Object.is/1/x semantics, so the expression must survive.
  const PassRun run =
      run_pass(jsrev::deob::make_fold_constants_pass(), "f(0 * -1);");
  EXPECT_EQ(run.changes, 0) << run.printed;
  EXPECT_NE(run.printed.find("0 * -1"), std::string::npos) << run.printed;
}

TEST(DeobFold, InfinityFoldsToRoundTrippingLiteral) {
  // 1 / 0 folds to an infinite number literal, which the printer spells
  // `1e999` (the identifier `Infinity` would not reparse as a literal).
  const PassRun pos =
      run_pass(jsrev::deob::make_fold_constants_pass(), "f(1 / 0);");
  EXPECT_GT(pos.changes, 0);
  EXPECT_NE(pos.printed.find("1e999"), std::string::npos) << pos.printed;

  const PassRun neg =
      run_pass(jsrev::deob::make_fold_constants_pass(), "f(-1 / 0);");
  EXPECT_GT(neg.changes, 0);
  EXPECT_NE(neg.printed.find("-1e999"), std::string::npos) << neg.printed;
}

TEST(DeobFold, NanIsNeverFolded) {
  const PassRun run =
      run_pass(jsrev::deob::make_fold_constants_pass(), "f(0 / 0);");
  EXPECT_EQ(run.changes, 0) << run.printed;
}

// ---------------------------------------------------------------------------
// inline-indirection: decoder/rotation ordering.
// ---------------------------------------------------------------------------

TEST(DeobInline, DecoderInlinesAfterRotation) {
  const std::string input =
      "var A = [\"alpha\", \"beta\", \"gamma\"];\n"
      "for (var k = 0; k < 1; k++) A.push(A.shift());\n"
      "function g(i) { return A[i - 1]; }\n"
      "use(g(1), g(2));\n";
  const PassRun run =
      run_pass(jsrev::deob::make_inline_indirection_pass(), input);
  // Rotation count 1 over 3 elements: g(1) -> values[1], g(2) -> values[2].
  EXPECT_EQ(run.changes, 2) << run.printed;
  EXPECT_NE(run.printed.find("\"beta\""), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("\"gamma\""), std::string::npos) << run.printed;
  // The rotation loop's only observable effect is gone with the calls.
  EXPECT_EQ(run.printed.find("push"), std::string::npos) << run.printed;
}

TEST(DeobInline, DecoderReferencedBeforeRotationBailsOut) {
  // The getter call executes before the rotation loop has run, so a static
  // decode against the rotated table would be wrong — the whole pattern must
  // be left untouched.
  const std::string input =
      "var A = [\"alpha\", \"beta\"];\n"
      "function g(i) { return A[i - 0]; }\n"
      "use(g(0));\n"
      "for (var k = 0; k < 1; k++) A.push(A.shift());\n";
  const PassRun run =
      run_pass(jsrev::deob::make_inline_indirection_pass(), input);
  EXPECT_EQ(run.changes, 0) << run.printed;
  EXPECT_NE(run.printed.find("g(0)"), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("push"), std::string::npos) << run.printed;
}

// ---------------------------------------------------------------------------
// unflatten: dispatcher matching and jump-safety bail-out.
// ---------------------------------------------------------------------------

TEST(DeobUnflatten, ReserializesDispatcherInOrder) {
  const std::string input =
      "var o = \"b|a\".split(\"|\"), c = 0;\n"
      "while (true) {\n"
      "  switch (o[c++]) {\n"
      "    case \"a\": f(1); continue;\n"
      "    case \"b\": f(2); continue;\n"
      "  }\n"
      "  break;\n"
      "}\n";
  const PassRun run = run_pass(jsrev::deob::make_unflatten_pass(), input);
  EXPECT_EQ(run.changes, 1) << run.printed;
  EXPECT_EQ(run.printed.find("switch"), std::string::npos) << run.printed;
  // Order string "b|a": case "b" body first, then case "a".
  EXPECT_LT(run.printed.find("f(2)"), run.printed.find("f(1)"))
      << run.printed;
  EXPECT_EQ(run.fingerprint, fingerprint_of("f(2);\nf(1);\n"));
}

TEST(DeobUnflatten, BailsOnFreeBreakInCaseBody) {
  // The bare `break` in case "b" would rebind from the dispatcher switch to
  // whatever encloses the unrolled statements — not unrollable.
  const std::string input =
      "var o = \"b|a\".split(\"|\"), c = 0;\n"
      "while (true) {\n"
      "  switch (o[c++]) {\n"
      "    case \"a\": f(1); continue;\n"
      "    case \"b\": if (g()) break; f(2); continue;\n"
      "  }\n"
      "  break;\n"
      "}\n";
  const PassRun run = run_pass(jsrev::deob::make_unflatten_pass(), input);
  EXPECT_EQ(run.changes, 0) << run.printed;
  EXPECT_NE(run.printed.find("switch"), std::string::npos) << run.printed;
}

TEST(DeobUnflatten, LoopInsideCaseBodyKeepsItsOwnJumps) {
  // break/continue nested under the case body's own loop are not free — the
  // dispatcher still unrolls.
  const std::string input =
      "var o = \"a|b\".split(\"|\"), c = 0;\n"
      "while (true) {\n"
      "  switch (o[c++]) {\n"
      "    case \"a\":\n"
      "      for (var i = 0; i < 3; i++) { if (h(i)) break; f(i); }\n"
      "      continue;\n"
      "    case \"b\": f(9); continue;\n"
      "  }\n"
      "  break;\n"
      "}\n";
  const PassRun run = run_pass(jsrev::deob::make_unflatten_pass(), input);
  EXPECT_EQ(run.changes, 1) << run.printed;
  EXPECT_EQ(run.printed.find("switch"), std::string::npos) << run.printed;
}

// ---------------------------------------------------------------------------
// Pinned per-pass normal forms (fingerprint regressions).
// ---------------------------------------------------------------------------

TEST(DeobFold, AtobFoldsOnlyStrictBase64) {
  // Valid canonical base64 folds to the decoded string ("aGk=" is "hi").
  expect_pass_normal_form(jsrev::deob::make_fold_constants_pass(),
                          "f(atob(\"aGk=\"));", "f(\"hi\");");

  // atob() on malformed input THROWS at runtime (InvalidCharacterError);
  // folding it to a string would change program behavior, so the pass must
  // leave every call intact: misplaced padding, a lone final char, and a
  // final quantum with nonzero stray bits ("QR==" — 'R' leaves 0b0001).
  for (const std::string bad : {"AB==CD", "TWFuT", "QR==", "T===", "a b"}) {
    const PassRun run = run_pass(jsrev::deob::make_fold_constants_pass(),
                                 "f(atob(\"" + bad + "\"));");
    EXPECT_NE(run.printed.find("atob"), std::string::npos)
        << "folded atob(\"" << bad << "\") to:\n" << run.printed;
  }
}

TEST(DeobInline, DecoderTableSkipsMalformedEntries) {
  // A decoder table mixing valid and malformed base64: the valid entry
  // inlines, the malformed one ("QR==" has nonzero stray bits — the
  // script's atob would throw there at runtime) keeps its call site.
  const std::string source =
      "var A = [\"aGk=\", \"QR==\"];\n"
      "function g(i) { return atob(A[i - 0]); }\n"
      "f(g(0));\n"
      "h(g(1));\n";
  const PassRun run =
      run_pass(jsrev::deob::make_inline_indirection_pass(), source);
  EXPECT_EQ(run.changes, 1) << run.printed;
  EXPECT_NE(run.printed.find("\"hi\""), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("g(1)"), std::string::npos) << run.printed;
}

TEST(DeobInline, MalformedEntryKeepsRotationAlive) {
  // One undecodable entry leaves a live call site behind, so the rotation
  // loop (which that site still observes) must NOT be pruned.
  const std::string source =
      "var A = [\"aGk=\", \"QR==\", \"eW8=\"];\n"
      "for (var k = 0; k < 1; k++) A.push(A.shift());\n"
      "function g(i) { return atob(A[i - 0]); }\n"
      "use(g(0), g(1), g(2));\n";
  const PassRun run =
      run_pass(jsrev::deob::make_inline_indirection_pass(), source);
  // Rotation 1 over 3: g(0)->"QR==" (skipped), g(1)->"eW8=" ("yo"),
  // g(2)->"aGk=" ("hi").
  EXPECT_EQ(run.changes, 2) << run.printed;
  EXPECT_NE(run.printed.find("\"yo\""), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("\"hi\""), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("g(0)"), std::string::npos) << run.printed;
  EXPECT_NE(run.printed.find("push"), std::string::npos) << run.printed;
}

TEST(DeobNormalForm, FoldConstants) {
  expect_pass_normal_form(
      jsrev::deob::make_fold_constants_pass(),
      "f(1 + 2 * 3, \"a\" + \"b\", String.fromCharCode(104, 105), x[\"y\"]);",
      "f(7, \"ab\", \"hi\", x.y);");
}

TEST(DeobNormalForm, InlineIndirection) {
  expect_pass_normal_form(jsrev::deob::make_inline_indirection_pass(),
                          "var t = g();\nh(t);\nf.apply(null, [1, 2]);",
                          "h(g());\nf(1, 2);");
}

TEST(DeobNormalForm, PruneDead) {
  expect_pass_normal_form(jsrev::deob::make_prune_dead_pass(),
                          "if (true) f(1); else f(2);\nwhile (false) g();",
                          "f(1);");
}

TEST(DeobNormalForm, Canonicalize) {
  expect_pass_normal_form(jsrev::deob::make_canonicalize_pass(),
                          "var a;\na = 1;\nf(a);",
                          "var v0 = 1;\nf(v0);");
}

TEST(DeobNormalForm, FullPipelineSmokeAndIdempotence) {
  const std::string input =
      "var a = 1 + 2;\n"
      "if (false) { var junk = \"de\" + \"ad\"; }\n"
      "console.log(\"h\" + \"i\", a);\n";
  const auto once = jsrev::deob::deobfuscate_source(input);
  ASSERT_TRUE(once.parse_ok);
  EXPECT_TRUE(once.pipeline.reached_fixpoint);
  EXPECT_EQ(once.fingerprint_after,
            fingerprint_of("console.log(\"hi\", 3);"));
  const auto twice = jsrev::deob::deobfuscate_source(once.source);
  ASSERT_TRUE(twice.parse_ok);
  EXPECT_EQ(twice.pipeline.total_changes, 0) << twice.source;
  EXPECT_EQ(once.fingerprint_after, twice.fingerprint_after);
}

TEST(DeobNormalForm, UnparseableInputIsReturnedVerbatim) {
  const auto r = jsrev::deob::deobfuscate_source("function (");
  EXPECT_FALSE(r.parse_ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.source, "function (");
}

// ---------------------------------------------------------------------------
// Thread compatibility.
// ---------------------------------------------------------------------------

TEST(DeobThreads, SharedDeobfuscatorMatchesSerialRun) {
  // The generator corpus, plain and through each obfuscator model.
  dataset::GeneratorConfig gc;
  gc.seed = 20230817;
  gc.benign_count = 100;
  gc.malicious_count = 100;
  gc.apply_wild_obfuscation = false;
  std::vector<std::string> inputs;
  for (const auto& s : dataset::generate_corpus(gc).samples) {
    inputs.push_back(s.source);
  }
  const std::size_t plain = inputs.size();
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto obfuscator = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < plain; ++i) {
      inputs.push_back(obfuscator->obfuscate(
          inputs[i], 0x9e3779b9u + static_cast<std::uint32_t>(i)));
    }
  }

  const Deobfuscator deob;
  const auto normal_form = [&deob, &inputs](std::size_t i) {
    js::Ast ast = js::parse(inputs[i]);
    deob.run(ast);
    return js::ast_fingerprint(ast.root);
  };
  std::vector<std::uint64_t> serial(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) serial[i] = normal_form(i);
  std::vector<std::uint64_t> shared(inputs.size());
  parallel_for_threads(4, inputs.size(),
                       [&](std::size_t i) { shared[i] = normal_form(i); });
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(shared[i], serial[i]) << "input " << i;
  }
}

}  // namespace
}  // namespace jsrev::deob
