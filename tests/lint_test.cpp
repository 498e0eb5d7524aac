// Tests for the semantic lint engine: per-rule firing and non-firing cases
// for every registered rule, summary-vector extraction, report rendering,
// determinism across thread widths, and a property test that linting never
// throws on any obfuscator's output.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "lint/linter.h"
#include "lint/registry.h"
#include "lint/report.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "util/rng.h"

namespace jsrev::lint {
namespace {

class LintRules : public ::testing::Test {
 protected:
  std::vector<Diagnostic> lint(const std::string& source) {
    const LintResult r = linter_.lint(source);
    EXPECT_FALSE(r.parse_failed) << r.parse_error;
    return r.diagnostics;
  }

  int count(const std::string& source, const std::string& rule_id) {
    int n = 0;
    for (const Diagnostic& d : lint(source)) n += d.rule_id == rule_id;
    return n;
  }

  Linter linter_;
};

// ---- registry ------------------------------------------------------------

TEST_F(LintRules, RegistryHasAtLeastTwelveUniqueRules) {
  const auto rules = make_default_rules();
  EXPECT_GE(rules.size(), 12u);
  std::set<std::string> ids;
  for (const auto& r : rules) ids.insert(std::string(r->id()));
  EXPECT_EQ(ids.size(), rules.size());
  EXPECT_EQ(rule_catalog().size(), rules.size());
}

// ---- malice rules --------------------------------------------------------

TEST_F(LintRules, M01EvalNonLiteral) {
  EXPECT_EQ(count("eval(payload);", "M01"), 1);
  EXPECT_EQ(count("var x = decode(); eval(x + suffix);", "M01"), 1);
  EXPECT_EQ(count("eval(\"use strict\");", "M01"), 0);  // literal arg exempt
  EXPECT_EQ(count("evaluate(payload);", "M01"), 0);     // not eval
}

TEST_F(LintRules, M02FunctionConstructor) {
  EXPECT_EQ(count("var f = new Function(\"a\", \"return a\");", "M02"), 1);
  EXPECT_EQ(count("var f = Function(body);", "M02"), 1);
  EXPECT_EQ(count("var f = function (a) { return a; };", "M02"), 0);
  EXPECT_EQ(count("var f = new Function();", "M02"), 0);  // no body arg
}

TEST_F(LintRules, M03DecodeThenExecute) {
  EXPECT_EQ(count("var p = atob(blob); eval(p);", "M03"), 1);
  EXPECT_EQ(
      count("var p = unescape(\"%61\"); window.setTimeout(p, 5);", "M03"), 1);
  EXPECT_EQ(count("var p = \"plain\"; eval(p);", "M03"), 0);  // not decoded
  EXPECT_EQ(count("var p = atob(blob); log(p);", "M03"), 0);  // no sink
}

TEST_F(LintRules, M03OneDiagnosticPerSink) {
  // Two decoded defs reaching one sink report once.
  EXPECT_EQ(count("var a = atob(x); a = atob(y); eval(a);", "M03"), 1);
}

TEST_F(LintRules, M04DocumentWriteDecoded) {
  EXPECT_EQ(count("document.write(unescape(\"%3c\"));", "M04"), 1);
  EXPECT_EQ(count("var h = atob(b); document.writeln(h);", "M04"), 1);
  EXPECT_EQ(count("document.write(\"<b>hi</b>\");", "M04"), 0);
}

TEST_F(LintRules, M05LongEncodedLiteral) {
  const std::string b64(64, 'A');
  EXPECT_EQ(count("var s = \"" + b64 + "\";", "M05"), 1);
  EXPECT_EQ(count("var s = \"deadbeefcafe00112233445566778899aabbccdd"
                  "eeff0011\";",
                  "M05"),
            1);
  EXPECT_EQ(count("var s = \"short\";", "M05"), 0);
  // Long but with spaces: prose, not a payload.
  EXPECT_EQ(count("var s = \"the quick brown fox jumps over the lazy dog "
                  "again and again\";",
                  "M05"),
            0);
}

TEST_F(LintRules, M06CharcodeAssembly) {
  EXPECT_EQ(count("var s = \"\"; for (var i = 0; i < a.length; i++) "
                  "{ s += String.fromCharCode(a[i]); }",
                  "M06"),
            1);
  EXPECT_EQ(count("while (i--) { c = s.charCodeAt(i); }", "M06"), 1);
  EXPECT_EQ(count("var c = String.fromCharCode(65);", "M06"), 0);  // no loop
  EXPECT_EQ(count("for (var i = 0; i < n; i++) { sum += i; }", "M06"), 0);
}

TEST_F(LintRules, M07ActiveXProbe) {
  EXPECT_EQ(count("var sh = new ActiveXObject(\"WScript.Shell\");", "M07"), 1);
  EXPECT_EQ(count("WScript.Sleep(100);", "M07"), 1);
  // Locally declared shadow is not a host-object probe.
  EXPECT_EQ(count("var ActiveXObject = stub; var x = ActiveXObject();", "M07"),
            0);
  EXPECT_EQ(count("var sh = helper();", "M07"), 0);
}

TEST_F(LintRules, M08EnvFingerprinting) {
  EXPECT_EQ(count("if (navigator.userAgent && navigator.platform) { go(); }",
                  "M08"),
            1);
  EXPECT_EQ(count("var w = screen.width; var h = screen.height;", "M08"), 1);
  EXPECT_EQ(count("log(navigator.userAgent);", "M08"), 0);  // single probe
}

TEST_F(LintRules, M09TimerStringEval) {
  EXPECT_EQ(count("setTimeout(\"doWork()\", 10);", "M09"), 1);
  EXPECT_EQ(count("window.setInterval(\"tick()\" + n, 50);", "M09"), 1);
  EXPECT_EQ(count("setTimeout(function () { doWork(); }, 10);", "M09"), 0);
  EXPECT_EQ(count("setTimeout(cb, 10);", "M09"), 0);
}

TEST_F(LintRules, M10ScriptInjection) {
  EXPECT_EQ(count("var s = document.createElement(\"script\");", "M10"), 1);
  EXPECT_EQ(count("var f = d.createElement(\"IFRAME\");", "M10"), 1);
  EXPECT_EQ(count("var d = document.createElement(\"div\");", "M10"), 0);
}

// ---- hygiene rules -------------------------------------------------------

TEST_F(LintRules, H01WithStatement) {
  EXPECT_EQ(count("with (obj) { total = price * 2; }", "H01"), 1);
  EXPECT_EQ(count("var total = obj.price * 2;", "H01"), 0);
}

TEST_F(LintRules, H02UndeclaredAssignment) {
  EXPECT_EQ(count("tracker = collect();", "H02"), 1);
  EXPECT_EQ(count("var tracker = collect();", "H02"), 0);  // declared
  EXPECT_EQ(count("onload = init;", "H02"), 0);  // well-known host global
}

TEST_F(LintRules, H03UnreachableCode) {
  EXPECT_EQ(count("function f() { return 1; cleanup(); }", "H03"), 1);
  EXPECT_EQ(count("throw err; afterThrow();", "H03"), 1);
  EXPECT_EQ(count("function f() { if (x) { return 1; } cleanup(); }", "H03"),
            0);
  // Hoisted function declarations after a return stay callable.
  EXPECT_EQ(count("function f() { return g(); function g() {} }", "H03"), 0);
}

TEST_F(LintRules, H03ReportsOnlyOutermost) {
  EXPECT_EQ(count("function f() { return 1; if (x) { a(); b(); } }", "H03"),
            1);
}

TEST_F(LintRules, H04WriteOnlyVariable) {
  EXPECT_EQ(count("var deadStore = compute();", "H04"), 1);
  EXPECT_EQ(count("var n = 0; n = 1; n++;", "H04"), 1);
  EXPECT_EQ(count("var n = 0; use(n);", "H04"), 0);
  // Catch params are written by the throw machinery — never write-only.
  EXPECT_EQ(count("try { f(); } catch (e) { }", "H04"), 0);
  // Function params are written by every call.
  EXPECT_EQ(count("function f(unusedArg) { return 1; }", "H04"), 0);
}

TEST_F(LintRules, H05ConstantCondition) {
  EXPECT_EQ(count("if (true) { a(); }", "H05"), 1);
  EXPECT_EQ(count("var v = false ? a() : b();", "H05"), 1);
  EXPECT_EQ(count("if (!1) { a(); }", "H05"), 1);
  EXPECT_EQ(count("if (x) { a(); }", "H05"), 0);
  // while (true) is the idiomatic infinite loop, deliberately exempt.
  EXPECT_EQ(count("while (true) { if (step()) { break; } }", "H05"), 0);
}

// ---- diagnostics metadata ------------------------------------------------

TEST_F(LintRules, DiagnosticCarriesSpanAndExcerpt) {
  const auto diags = lint("var ok = 1;\nuse(ok);\neval(payload);\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "M01");
  EXPECT_EQ(diags[0].line, 3u);
  EXPECT_EQ(diags[0].node_kind, "CallExpression");
  EXPECT_EQ(diags[0].excerpt, "eval(payload)");
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].category, Category::kMalice);
}

TEST_F(LintRules, ParseFailureIsReportedNotThrown) {
  LintResult r;
  EXPECT_NO_THROW(r = linter_.lint("var = ;"));
  EXPECT_TRUE(r.parse_failed);
  EXPECT_FALSE(r.parse_error.empty());
  EXPECT_TRUE(r.diagnostics.empty());
}

// ---- summary feature vector ----------------------------------------------

TEST_F(LintRules, FeatureVectorShape) {
  EXPECT_EQ(lint_feature_names().size(), kLintFeatureDim);
  const LintResult r = linter_.lint("eval(payload);");
  const std::vector<double> f = lint_feature_vector(r);
  ASSERT_EQ(f.size(), kLintFeatureDim);
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // one malice diagnostic
  EXPECT_DOUBLE_EQ(f[1], 0.0);  // no hygiene diagnostics
  EXPECT_DOUBLE_EQ(f[2], severity_weight(Severity::kError));
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // one distinct rule
}

TEST_F(LintRules, FeatureVectorZeroOnParseFailure) {
  const std::vector<double> f =
      lint_feature_vector(linter_.lint("function ("));
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(LintRules, FeatureVectorCountsDistinctRulesOnce) {
  // Two M01 hits + one H02: malice=2, distinct rules=2.
  const LintResult r =
      linter_.lint("eval(a); eval(b); leak = 1;");
  const std::vector<double> f = lint_feature_vector(r);
  EXPECT_DOUBLE_EQ(f[0], 2.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);
  EXPECT_DOUBLE_EQ(f[3], 2.0);
}

// ---- reports -------------------------------------------------------------

TEST_F(LintRules, TextReportMentionsRuleAndSeverity) {
  std::vector<NamedResult> named;
  named.push_back({"sample.js", linter_.lint("eval(payload);")});
  const std::string text = render_text(named);
  EXPECT_NE(text.find("sample.js:1"), std::string::npos);
  EXPECT_NE(text.find("[M01/eval-non-literal]"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST_F(LintRules, JsonReportIsStructured) {
  std::vector<NamedResult> named;
  named.push_back({"a \"quoted\" name.js", linter_.lint("eval(p);")});
  const std::string json = render_json(named);
  EXPECT_NE(json.find("\"rule_id\":\"M01\""), std::string::npos);
  EXPECT_NE(json.find("\"a \\\"quoted\\\" name.js\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\":{\"inputs\":1"), std::string::npos);
  EXPECT_NE(json.find("\"malice_diags\":1.0"), std::string::npos);
}

TEST_F(LintRules, JsonReportRoundTripsControlCharacters) {
  // Every byte below 0x20, NUL included (U+0008 and U+000C come out as \b and
  // \f, the rest as \n, \r, \t or \u00XX), plus the two characters JSON
  // must escape.
  std::string text = "\"quoted\" \\ ";
  for (int c = 0; c < 0x20; ++c) text += static_cast<char>(c);
  std::vector<NamedResult> named(2);
  named[0].name = "bad" + text + ".js";
  named[0].result.parse_failed = true;
  named[0].result.parse_error = "unexpected token" + text;
  named[1].name = "ok.js";
  named[1].result.diagnostics.push_back(Diagnostic{});
  named[1].result.diagnostics[0].message = "message" + text;
  named[1].result.diagnostics[0].excerpt = "eval(\"" + text + "\")";

  const std::string json = render_json(named);
  // JSON forbids raw control characters inside strings.
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) {
                            return static_cast<unsigned char>(c) < 0x20;
                          }),
            0);
  std::string error;
  const std::unique_ptr<obs::JsonValue> doc = obs::json_parse(json, &error);
  ASSERT_NE(doc, nullptr) << error;
  const obs::JsonValue* inputs = doc->find("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_EQ(inputs->array.size(), 2u);
  const obs::JsonValue& failed = inputs->array[0];
  ASSERT_NE(failed.find("name"), nullptr);
  EXPECT_EQ(failed.find("name")->string, named[0].name);
  ASSERT_NE(failed.find("parse_error"), nullptr);
  EXPECT_EQ(failed.find("parse_error")->string, named[0].result.parse_error);
  const obs::JsonValue* diags = inputs->array[1].find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->array.size(), 1u);
  ASSERT_NE(diags->array[0].find("excerpt"), nullptr);
  EXPECT_EQ(diags->array[0].find("excerpt")->string,
            named[1].result.diagnostics[0].excerpt);
  ASSERT_NE(diags->array[0].find("message"), nullptr);
  EXPECT_EQ(diags->array[0].find("message")->string,
            named[1].result.diagnostics[0].message);
}

// ---- determinism ---------------------------------------------------------

TEST_F(LintRules, LintAllDeterministicAcrossWidths) {
  dataset::GeneratorConfig gc;
  gc.seed = 99;
  gc.benign_count = 20;
  gc.malicious_count = 20;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> sources;
  for (const auto& s : corpus.samples) sources.push_back(s.source);

  auto fingerprint = [](const std::vector<LintResult>& rs) {
    std::string fp;
    for (const LintResult& r : rs) {
      if (r.parse_failed) fp += "!parse;";
      for (const Diagnostic& d : r.diagnostics) {
        fp += d.rule_id + ":" + std::to_string(d.line) + ";";
      }
      fp += "|";
    }
    return fp;
  };
  const std::string serial = fingerprint(linter_.lint_all(sources, 1));
  EXPECT_EQ(fingerprint(linter_.lint_all(sources, 2)), serial);
  EXPECT_EQ(fingerprint(linter_.lint_all(sources, 4)), serial);
  EXPECT_EQ(fingerprint(linter_.lint_all(sources, 8)), serial);
}

// ---- property: never throws on obfuscated output -------------------------

TEST_F(LintRules, NeverThrowsOnObfuscatedScripts) {
  Rng rng(4242);
  std::vector<std::string> raw;
  for (int i = 0; i < 25; ++i) {
    raw.push_back(dataset::generate_benign(rng));
    raw.push_back(dataset::generate_malicious(rng));
  }

  std::size_t linted = 0;
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto obfuscator = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const std::string obfuscated = obfuscator->obfuscate(raw[i], 1000 + i);
      LintResult r;
      ASSERT_NO_THROW(r = linter_.lint(obfuscated))
          << obfuscator->name() << " script " << i;
      EXPECT_FALSE(r.parse_failed)
          << obfuscator->name() << " script " << i << ": " << r.parse_error;
      ++linted;
    }
  }
  EXPECT_GE(linted, 200u);
}

}  // namespace
}  // namespace jsrev::lint
