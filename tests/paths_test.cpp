#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "analysis/dataflow.h"
#include "analysis/scope.h"
#include "analysis/script_analysis.h"
#include "dataset/generator.h"
#include "js/parser.h"
#include "js/visitor.h"
#include "obfuscators/obfuscator.h"
#include "obs/metrics.h"
#include "paths/path_extraction.h"
#include "paths/vocab.h"

namespace jsrev::paths {
namespace {

struct Extracted {
  js::Ast ast;
  analysis::ScopeInfo scopes;
  analysis::DataFlowInfo flow;
  std::vector<PathContext> paths;
};

Extracted extract(const std::string& src, PathConfig cfg = {}) {
  Extracted e;
  e.ast = js::parse(src);
  e.scopes = analysis::analyze_scopes(e.ast.root);
  e.flow = analysis::analyze_dataflow(e.ast.root, e.scopes);
  e.paths = extract_paths(e.ast.root, &e.flow, cfg);
  return e;
}

TEST(PathExtraction, SimpleProgramYieldsPaths) {
  const auto e = extract("var a = 1 + 2;");
  EXPECT_FALSE(e.paths.empty());
  for (const auto& p : e.paths) {
    EXPECT_FALSE(p.path.empty());
    EXPECT_FALSE(p.source_value.empty());
    EXPECT_FALSE(p.target_value.empty());
  }
}

TEST(PathExtraction, EmptyProgramYieldsNoPaths) {
  const auto e = extract("");
  EXPECT_TRUE(e.paths.empty());
}

TEST(PathExtraction, PathCountGrowsWithLeafPairs) {
  const auto small = extract("var a = 1;");
  const auto big = extract("var a = 1; var b = 2; var c = 3;");
  EXPECT_GT(big.paths.size(), small.paths.size());
}

TEST(PathExtraction, MaxLengthRespected) {
  PathConfig cfg;
  cfg.max_length = 4;
  const auto e = extract(
      "function f(x) { if (x) { return g(x + 1) * 2; } return 0; }", cfg);
  for (const auto& p : e.paths) {
    // Count nodes in the rendered path: separators are '^' and 'v' between
    // kind names; nodes = separators + 1.
    int seps = 0;
    for (std::size_t i = 0; i < p.path.size(); ++i) {
      const char c = p.path[i];
      if (c == '^') ++seps;
      // 'v' is a separator only between an uppercase-terminated kind and an
      // uppercase start; our kinds never contain lowercase 'v' followed by
      // uppercase except as the separator.
      if (c == 'v' && i + 1 < p.path.size() && std::isupper(p.path[i + 1]))
        ++seps;
    }
    EXPECT_LE(seps + 1, cfg.max_length) << p.path;
  }
}

TEST(PathExtraction, MaxWidthRespected) {
  PathConfig narrow;
  narrow.max_width = 1;
  PathConfig wide;
  wide.max_width = 100;
  const std::string src = "f(a, b, c, d, e, g, h, i);";
  const auto n = extract(src, narrow);
  const auto w = extract(src, wide);
  EXPECT_LT(n.paths.size(), w.paths.size());
}

TEST(PathExtraction, MaxPathsCap) {
  PathConfig cfg;
  cfg.max_paths = 10;
  std::string src;
  for (int i = 0; i < 30; ++i) src += "var v" + std::to_string(i) + " = 1;\n";
  const auto e = extract(src, cfg);
  EXPECT_EQ(e.paths.size(), 10u);
}

TEST(PathExtraction, DataLinkedLeavesShareValue) {
  // `total` flows between two statements: a path between its two
  // occurrences carries the shared same-symbol value @vs on both ends.
  const auto e = extract("var total = 1; use(total);");
  bool found_same = false;
  for (const auto& p : e.paths) {
    if (p.source_value == "@vs" && p.target_value == "@vs") {
      found_same = true;
    }
  }
  EXPECT_TRUE(found_same);
}

TEST(PathExtraction, DistinctLinkedSymbolsMarkedDifferent) {
  // Two different flow-linked variables in one path: @va / @vb endpoints.
  const auto e = extract("var a = 1; var b = a + 2; use(a, b);");
  bool found_diff = false;
  for (const auto& p : e.paths) {
    if (p.source_value == "@va" && p.target_value == "@vb") {
      found_diff = true;
    }
  }
  EXPECT_TRUE(found_diff);
}

TEST(PathExtraction, LinkedValuesStableUnderPrefixInsertion) {
  // Prepending unrelated code must not change the payload's path keys
  // (insertion-invariance of the linked-value encoding).
  const std::string payload = "var total = f(); use(total); total = total + 1;";
  const auto plain = extract(payload);
  const auto shifted = extract(
      "var zz1 = g(); h(zz1); var zz2 = zz1 * 3; send(zz2);\n" + payload);
  std::multiset<std::string> plain_keys;
  for (const auto& p : plain.paths) plain_keys.insert(p.key());
  std::size_t found = 0;
  std::multiset<std::string> shifted_keys;
  for (const auto& p : shifted.paths) shifted_keys.insert(p.key());
  for (const auto& k : plain_keys) found += shifted_keys.count(k) > 0;
  // Every within-payload path key must reappear verbatim.
  EXPECT_EQ(found, plain_keys.size());
}

TEST(PathExtraction, UnlinkedLeavesAbstracted) {
  const auto e = extract("var s = \"hello\";");
  std::set<std::string> values;
  for (const auto& p : e.paths) {
    values.insert(p.source_value);
    values.insert(p.target_value);
  }
  EXPECT_TRUE(values.count("@var_str") == 1);
}

TEST(PathExtraction, IntegerVsFloatIndicators) {
  const auto e = extract("f(3, 2.5);");
  std::set<std::string> values;
  for (const auto& p : e.paths) {
    values.insert(p.source_value);
    values.insert(p.target_value);
  }
  EXPECT_TRUE(values.count("@var_int") == 1);
  EXPECT_TRUE(values.count("@var_num") == 1);
}

TEST(PathExtraction, RegularAstAblationUsesRawValues) {
  // The Table IV ablation is code2vec-style: concrete leaf values.
  PathConfig cfg;
  cfg.use_dataflow = false;
  const auto ast = js::parse("var total = 1; use(total);");
  const auto paths = extract_paths(ast.root, nullptr, cfg);
  bool saw_raw_name = false;
  for (const auto& p : paths) {
    saw_raw_name = saw_raw_name || p.source_value == "total" ||
                   p.target_value == "total";
  }
  EXPECT_TRUE(saw_raw_name);
}

TEST(PathExtraction, RenamingInvariantWithDataflow) {
  // Consistent renaming must produce the identical path-key multiset.
  const auto a = extract("var count = f(); g(count); var x = count + 1;");
  const auto b = extract("var qz = f(); g(qz); var ww = qz + 1;");
  std::multiset<std::string> ka, kb;
  for (const auto& p : a.paths) ka.insert(p.key());
  for (const auto& p : b.paths) kb.insert(p.key());
  EXPECT_EQ(ka, kb);
}

TEST(PathExtraction, DirectionMarkersPresent) {
  const auto e = extract("var a = b + c;");
  bool has_up_down = false;
  for (const auto& p : e.paths) {
    if (p.path.find('^') != std::string::npos &&
        p.path.find('v') != std::string::npos) {
      has_up_down = true;
    }
  }
  EXPECT_TRUE(has_up_down);
}

TEST(PathVocab, AddAndLookup) {
  PathVocab vocab;
  PathContext pc{"@var_int", "Literal^BinaryExpressionvLiteral", "@var_int"};
  const auto id = vocab.add(pc);
  EXPECT_EQ(vocab.lookup(pc), id);
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(PathVocab, DuplicateAddReturnsSameId) {
  PathVocab vocab;
  PathContext pc{"a", "P", "b"};
  EXPECT_EQ(vocab.add(pc), vocab.add(pc));
  EXPECT_EQ(vocab.size(), 1u);
}

TEST(PathVocab, UnknownLookup) {
  PathVocab vocab;
  PathContext pc{"a", "P", "b"};
  EXPECT_EQ(vocab.lookup(pc), PathVocab::kUnknown);
}

TEST(PathVocab, RepresentativeRoundTrip) {
  PathVocab vocab;
  PathContext pc{"x", "IdentifiervLiteral", "y"};
  const auto id = vocab.add(pc);
  const PathContext& rep = vocab.representative(id);
  EXPECT_EQ(rep.source_value, "x");
  EXPECT_EQ(rep.path, "IdentifiervLiteral");
  EXPECT_EQ(rep.target_value, "y");
  EXPECT_EQ(vocab.key(id), pc.key());
}

// Property sweep: path extraction must be deterministic and within caps for
// a variety of generated programs.
class PathSweep : public ::testing::TestWithParam<int> {};

TEST_P(PathSweep, DeterministicAndBounded) {
  std::string src;
  const int n = GetParam();
  for (int i = 0; i < n; ++i) {
    src += "function fn" + std::to_string(i) + "(a, b) { var r = a * " +
           std::to_string(i) + " + b; if (r > 10) { return r; } return b; }\n";
  }
  PathConfig cfg;
  const auto e1 = extract(src, cfg);
  const auto e2 = extract(src, cfg);
  ASSERT_EQ(e1.paths.size(), e2.paths.size());
  for (std::size_t i = 0; i < e1.paths.size(); ++i) {
    EXPECT_EQ(e1.paths[i].key(), e2.paths[i].key());
  }
  EXPECT_LE(e1.paths.size(), cfg.max_paths);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathSweep, ::testing::Values(1, 3, 7, 15));

// The all-pairs extractor the windowed enumeration replaced, kept as the
// oracle: every leaf pair in (i, j) order, the common ancestor found from
// the two root chains, the length and width checks, strings built per
// path. `values` are the leaves' own values in source order.
std::vector<PathContext> reference_paths(const js::Node* program,
                                         const analysis::DataFlowInfo* dataflow,
                                         const PathConfig& cfg,
                                         const std::vector<std::string>& values) {
  struct Chain {
    const js::Node* node;
    std::vector<const js::Node*> ancestors;  // leaf first, root last
    std::vector<int> child_index;            // slot in each ancestor
  };
  std::vector<Chain> leaves;
  for (const js::Node* leaf : js::leaves(program)) {
    Chain c{leaf, {}, {}};
    for (const js::Node* cur = leaf; cur != nullptr; cur = cur->parent) {
      c.ancestors.push_back(cur);
      if (cur->parent == nullptr) continue;
      const auto& siblings = cur->parent->children;
      for (std::size_t k = 0; k < siblings.size(); ++k) {
        if (siblings[k] == cur) {
          c.child_index.push_back(static_cast<int>(k));
          break;
        }
      }
    }
    leaves.push_back(std::move(c));
  }
  EXPECT_EQ(leaves.size(), values.size());
  const auto symbol = [&](const js::Node* n) {
    return cfg.use_dataflow && dataflow != nullptr &&
                   n->kind == js::NodeKind::kIdentifier
               ? dataflow->canonical_index(n)
               : -1;
  };
  std::vector<PathContext> out;
  for (std::size_t i = 0; i < leaves.size() && out.size() < cfg.max_paths;
       ++i) {
    for (std::size_t j = i + 1;
         j < leaves.size() && out.size() < cfg.max_paths; ++j) {
      const Chain& a = leaves[i];
      const Chain& b = leaves[j];
      std::size_t ai = a.ancestors.size();
      std::size_t bi = b.ancestors.size();
      while (ai > 0 && bi > 0 && a.ancestors[ai - 1] == b.ancestors[bi - 1]) {
        --ai;
        --bi;
      }
      if (static_cast<int>(ai + bi + 1) > cfg.max_length) continue;
      if (std::abs(a.child_index[ai - 1] - b.child_index[bi - 1]) >
          cfg.max_width) {
        continue;
      }
      PathContext pc{values[i], "", values[j]};
      const int sa = symbol(a.node);
      const int sb = symbol(b.node);
      if (sa >= 0 && sb >= 0) {
        pc.source_value = sa == sb ? "@vs" : "@va";
        pc.target_value = sa == sb ? "@vs" : "@vb";
      }
      for (std::size_t k = 0; k < ai; ++k) {
        pc.path += js::node_kind_name(a.ancestors[k]->kind);
        pc.path += '^';
      }
      pc.path += js::node_kind_name(a.ancestors[ai]->kind);
      for (std::size_t k = bi; k > 0; --k) {
        pc.path += 'v';
        pc.path += js::node_kind_name(b.ancestors[k - 1]->kind);
      }
      out.push_back(std::move(pc));
    }
  }
  return out;
}

// The enumeration must reproduce the reference under every (max_length,
// max_width) window and max_paths cap, both leaf-value modes, and give the
// reference's vocabulary ids through the record lookups.
void expect_matches_reference(const js::Node* root,
                              const analysis::DataFlowInfo* flow,
                              const std::string& what) {
  struct Window {
    int length;
    int width;
  };
  for (const bool use_dataflow : {true, false}) {
    for (const Window w : {Window{12, 4}, Window{4, 1}, Window{8, 100}}) {
      PathConfig cfg;
      cfg.use_dataflow = use_dataflow;
      cfg.max_length = w.length;
      cfg.max_width = w.width;
      const PathSet full = enumerate_paths(root, flow, cfg);
      std::vector<std::string> values;
      if (use_dataflow) {
        for (const js::Node* leaf : js::leaves(root)) {
          values.push_back(leaf_value(leaf, flow));
        }
      } else {
        for (const PathSet::Leaf& leaf : full.leaves()) {
          values.push_back(leaf.value);
        }
      }
      const std::vector<PathContext> ref =
          reference_paths(root, flow, cfg, values);
      const std::string where = what + " dataflow=" +
                                std::to_string(use_dataflow) + " window " +
                                std::to_string(w.length) + "/" +
                                std::to_string(w.width);
      ASSERT_EQ(full.size(), std::min<std::size_t>(ref.size(), cfg.max_paths))
          << where;
      // A vocabulary holding every other reference path: hits and misses.
      PathVocab vocab;
      for (std::size_t k = 0; k < ref.size(); k += 2) vocab.add(ref[k]);
      const PathVocabView view = vocab.view();
      for (const std::size_t cap : {1u, 7u, 100u, 20000u}) {
        cfg.max_paths = cap;
        const PathSet set = enumerate_paths(root, flow, cfg);
        ASSERT_EQ(set.size(), std::min(cap, ref.size())) << where;
        const std::vector<std::int32_t> ids = view.lookup_all(set);
        for (std::size_t k = 0; k < set.size(); ++k) {
          const PathContext pc = set.context(k);
          ASSERT_EQ(pc.source_value, ref[k].source_value) << where << " #" << k;
          ASSERT_EQ(pc.path, ref[k].path) << where << " #" << k;
          ASSERT_EQ(pc.target_value, ref[k].target_value) << where << " #" << k;
          ASSERT_EQ(set.hash(k), fnv1a64(ref[k].key())) << where << " #" << k;
          const std::int32_t want = view.lookup(ref[k]);
          if (k % 2 == 0) {
            ASSERT_NE(want, PathVocab::kUnknown) << where << " #" << k;
          }
          ASSERT_EQ(ids[k], want) << where << " #" << k;
        }
      }
      const std::vector<PathContext> rendered = extract_paths(root, flow, cfg);
      ASSERT_EQ(rendered.size(), std::min<std::size_t>(ref.size(), 20000));
    }
  }
}

TEST(PathOracle, MatchesAllPairsOverObfuscatedAndNormalizedCorpus) {
  dataset::GeneratorConfig gc;
  gc.seed = 4242;
  gc.benign_count = 6;
  gc.malicious_count = 6;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 900 + i));
    }
  }
  std::size_t checked = 0;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    for (const bool deob : {false, true}) {
      const analysis::ScriptAnalysis a(scripts[i], {}, deob);
      if (a.parse_failed()) continue;
      expect_matches_reference(a.root(), &a.dataflow(),
                               "script " + std::to_string(i) +
                                   (deob ? " deob" : ""));
      if (HasFatalFailure()) return;
      ++checked;
    }
  }
  EXPECT_GE(checked, scripts.size());  // most variants parse
}

TEST(PathOracle, MatchesAllPairsAcrossNullChildSlots) {
  // Holes count as slots for width: array holes, an empty for header, a
  // test-less default case, an argument-less return.
  for (const char* src : {
           "var a = [1, , 2, , , x, y];",
           "for (;;) { if (z) break; f(z); }",
           "switch (k) { case 1: f(k); break; default: g(); }",
           "function h(q) { if (q) return; return q + 1; }",
           "var b = [, , , u]; for (var i = 0; ; i++) { b[i] = i; }",
       }) {
    const Extracted e = extract(src);
    expect_matches_reference(e.ast.root, &e.flow, src);
    if (HasFatalFailure()) return;
  }
}

TEST(PathOracle, RejectsWindowsBeyondTheRecordFields) {
  const js::Ast ast = js::parse("var a = 1;");
  PathConfig cfg;
  cfg.max_length = kMaxPathLength + 1;
  EXPECT_THROW(enumerate_paths(ast.root, nullptr, cfg), std::invalid_argument);
  cfg.max_length = kMaxPathLength;
  cfg.max_width = kMaxPathWidth + 1;
  EXPECT_THROW(enumerate_paths(ast.root, nullptr, cfg), std::invalid_argument);
  cfg.max_width = kMaxPathWidth;
  EXPECT_GT(enumerate_paths(ast.root, nullptr, cfg).size(), 0u);
}

// The five growth families of the cost gate, at scale k.
std::string growth_family(int family, int k) {
  std::string s;
  switch (family) {
    case 0:  // isolated deep leaves: no two within a path's reach
      for (int i = 0; i < 8 * k; ++i) s += "[[[[[[[[[[[[[x]]]]]]]]]]]]];\n";
      break;
    case 1:  // one long member chain
      s = "var r = o";
      for (int i = 0; i < 16 * k; ++i) s += ".m" + std::to_string(i);
      s += ";\n";
      break;
    case 2:  // one wide object literal
      s = "var o = {";
      for (int i = 0; i < 16 * k; ++i) {
        s += "k" + std::to_string(i) + ": " + std::to_string(i) + ", ";
      }
      s += "};\n";
      break;
    case 3:  // a string-array decoder and its calls
      s = "var _0xa = [";
      for (int i = 0; i < 16 * k; ++i) s += "\"s" + std::to_string(i) + "\", ";
      s += "];\nfunction _0xd(i) { return _0xa[i - 0]; }\n";
      for (int i = 0; i < 16 * k; ++i) {
        s += "console.log(_0xd(" + std::to_string(i) + "));\n";
      }
      break;
    default:  // one long switch
      s = "switch (x) {\n";
      for (int i = 0; i < 8 * k; ++i) {
        s += "  case " + std::to_string(i) + ": f(" + std::to_string(i) +
             "); break;\n";
      }
      s += "  default: g();\n}\n";
      break;
  }
  return s;
}

// Cost gate on the deterministic counter, not wall time: the steps the
// enumeration takes per leaf and emitted path stay under one constant as
// each family grows 64-fold (the all-pairs scan's ratio grew with size,
// to 256 on the deep-leaf family at 64x).
TEST(PathEnumeration, StepsPerLeafAndPathStayBoundedAsFamiliesGrow) {
  constexpr double kMaxStepsPerItem = 4.0;
  obs::Counter* counter = obs::metrics().counter("paths.pairs_visited");
  for (int family = 0; family < 5; ++family) {
    for (int k = 1; k <= 64; k *= 2) {
      const Extracted e = extract(growth_family(family, k));
      const std::uint64_t before = counter->value();
      const PathSet set = enumerate_paths(e.ast.root, &e.flow);
      EXPECT_EQ(counter->value() - before, set.pairs_visited());
      const double items =
          static_cast<double>(set.leaves().size() + set.size());
      EXPECT_LE(static_cast<double>(set.pairs_visited()) / items,
                kMaxStepsPerItem)
          << "family " << family << " at " << k << "x: "
          << set.pairs_visited() << " steps, " << set.leaves().size()
          << " leaves, " << set.size() << " paths";
    }
  }
}

}  // namespace
}  // namespace jsrev::paths
