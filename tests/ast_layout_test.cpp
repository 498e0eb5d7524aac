// Regression + property suite for the compact index-based AST layout.
//
// The layout refactor (interned atoms, slice-based children, preorder
// compaction) must be invisible to every consumer:
//  * ast_fingerprint values on a pinned corpus stay byte-identical to the
//    values recorded against the pointer-heavy layout,
//  * parse -> compact -> print -> reparse preserves ast_equal and the
//    fingerprint over 500 generated + obfuscated scripts, at thread widths
//    1/2/8 with bit-identical results,
//  * the same 500 scripts take at most 0.75x the pointer-heavy layout's heap
//    bytes per node,
//  * an uncompacted clone fingerprints/prints identically before and after
//    its own compaction,
//  * the arena gauges advance while trees are alive.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "dataset/generator.h"
#include "js/ast_compare.h"
#include "js/parser.h"
#include "js/printer.h"
#include "js/visitor.h"
#include "obfuscators/obfuscator.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace jsrev::js {
namespace {

std::vector<std::string> property_corpus() {
  dataset::GeneratorConfig gc;
  gc.seed = 424242;
  gc.benign_count = 150;
  gc.malicious_count = 150;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  std::vector<std::string> sources;
  sources.reserve(corpus.samples.size() + 4 * 50);
  for (const auto& s : corpus.samples) sources.push_back(s.source);
  for (auto kind : obf::kAllObfuscators) {
    auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < 50; ++i) {
      sources.push_back(ob->obfuscate(corpus.samples[i].source, 99 + i));
    }
  }
  return sources;
}

// Fingerprints recorded against the pre-refactor pointer-heavy layout
// (96-byte nodes, std::string payloads). The compact layout must reproduce
// them bit-for-bit: ast_fingerprint hashes node content, so any interning or
// compaction bug that mangles payloads or child order shows up here.
TEST(AstLayout, PinnedFingerprintsMatchPreRefactorLayout) {
  std::vector<std::string> pinned = {
      "var x = 1; function f(a, b) { return a + b * x; } f(2, 3);",
      "for (var i = 0; i < 10; ++i) { if (i % 2) continue; console.log(i); }",
      "var s = 'abc' + \"def\"; eval(unescape(s)); // tail\n",
      "try { throw {a: [1, , 2], b: /re/g}; } catch (e) { e.a[0]++; }",
      "(function() { var o = {'k': 1, 2: true, q: null}; with (o) { k; } })();",
      "label: while (true) { switch (1) { case 1: break label; default: ; } }",
      "var f = (a, b) => a ? b : new Date().getTime();",
      "do { x -= 1; } while (x > 0);\nvar y = typeof x === 'number';",
  };
  dataset::GeneratorConfig pg;
  pg.seed = 7;
  pg.benign_count = 4;
  pg.malicious_count = 4;
  const dataset::Corpus pc = dataset::generate_corpus(pg);
  for (const auto& s : pc.samples) pinned.push_back(s.source);

  const std::uint64_t expected[] = {
      0x1ddc2365788e4b98ULL, 0xe845f1d08607be10ULL, 0x2c7e5f5a840bff7eULL,
      0x67a826e9d4548a3bULL, 0x3ea3186ce784faf7ULL, 0xb8f19f777c36c65cULL,
      0x6f85b96a4d4af64dULL, 0xa7da333f97cc58d9ULL, 0x74bcada115119495ULL,
      0x499527c0a69597faULL, 0x91c0e506b96f5974ULL, 0x55d46e0d192a074cULL,
      0xd3691eed7610d6e2ULL, 0xe731c5c8205d3b78ULL, 0x30cacd0b62cd0eb0ULL,
      0x323dcc9714680177ULL,
  };
  ASSERT_EQ(pinned.size(), std::size(expected));
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const Ast ast = parse(pinned[i]);
    EXPECT_EQ(ast_fingerprint(ast.root), expected[i]) << "script " << i;
  }
}

// parse (which compacts) -> print -> reparse must preserve structure and
// fingerprint for every script, and the per-script fingerprints must be
// bit-identical whether the sweep runs at width 1, 2, or 8.
TEST(AstLayout, RoundTripPreservedAcrossThreadWidths) {
  const std::vector<std::string> sources = property_corpus();
  ASSERT_GE(sources.size(), 500u);

  std::vector<std::uint64_t> reference;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    std::vector<std::uint64_t> fps(sources.size());
    std::vector<int> ok(sources.size(), 0);
    parallel_for_threads(width, sources.size(), [&](std::size_t i) {
      const Ast a = parse(sources[i]);
      fps[i] = ast_fingerprint(a.root);
      const Ast b = parse(print(a.root));
      ok[i] = ast_equal(a.root, b.root) &&
              ast_fingerprint(b.root) == fps[i];
    });
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_TRUE(ok[i]) << "round trip failed at width " << width
                         << " for script " << i;
    }
    if (reference.empty()) {
      reference = fps;
    } else {
      EXPECT_EQ(fps, reference) << "fingerprints diverge at width " << width;
    }
  }
}

// The compact layout holds the property corpus in at most three quarters of
// the 104.86 heap bytes per node that the pointer-heavy layout took on it
// (75.3 at the time of writing).
TEST(AstLayout, BytesPerNodeStayBelowThreeQuartersOfPointerLayout) {
  constexpr double kPointerLayoutBytesPerNode = 104.86;
  std::size_t nodes = 0;
  std::size_t bytes = 0;
  for (const std::string& src : property_corpus()) {
    const Ast ast = parse(src);
    nodes += static_cast<std::size_t>(count_nodes(ast.root));
    bytes += ast.arena.memory_bytes();
  }
  ASSERT_GT(nodes, 0u);
  EXPECT_LE(static_cast<double>(bytes) / static_cast<double>(nodes),
            0.75 * kPointerLayoutBytesPerNode);
}

// clone() rebuilds the tree in a fresh arena in build-mode (chunked) storage;
// compacting that clone must change neither the printed form nor the
// fingerprint, and must keep it ast_equal to the original.
TEST(AstLayout, CompactionIsObservationallyIdentity) {
  const std::vector<std::string> sources = property_corpus();
  for (std::size_t i = 0; i < sources.size(); i += 10) {
    const Ast original = parse(sources[i]);

    Ast copy;
    copy.root = clone(original.root, copy.arena);
    finalize_tree(copy.root);
    const std::uint64_t fp_before = ast_fingerprint(copy.root);
    const std::string printed_before = print(copy.root);

    copy.compact();
    EXPECT_EQ(ast_fingerprint(copy.root), fp_before) << "script " << i;
    EXPECT_EQ(print(copy.root), printed_before) << "script " << i;
    EXPECT_TRUE(ast_equal(copy.root, original.root)) << "script " << i;

    // Compaction renumbers preorder: slot, id, and parent linkage agree.
    EXPECT_EQ(copy.root->id, 0);
    EXPECT_EQ(copy.root->self, 0u);
    EXPECT_EQ(copy.root->parent, nullptr);
  }
}

// The arena gauges settle at compaction/destruction: live trees register
// their footprint, destroyed trees release it.
TEST(AstLayout, ArenaGaugesTrackLiveTrees) {
  obs::Gauge* arena_bytes = obs::metrics().gauge("ast.arena_bytes");
  obs::Gauge* atom_bytes = obs::metrics().gauge("ast.atom_bytes");
  obs::Counter* nodes_total = obs::metrics().counter("ast.nodes_total");

  const std::int64_t arena_before = arena_bytes->value();
  const std::uint64_t nodes_before = nodes_total->value();
  {
    const Ast ast = parse(
        "function f(a) { return a + 1; } var longIdentifierName = f(41);");
    EXPECT_GT(arena_bytes->value(), arena_before);
    EXPECT_GT(atom_bytes->value(), 0);
    EXPECT_GT(nodes_total->value(), nodes_before);
    EXPECT_EQ(static_cast<std::size_t>(arena_bytes->value() - arena_before),
              ast.arena.memory_bytes());
  }
  EXPECT_EQ(arena_bytes->value(), arena_before);  // released on destruction
}

}  // namespace
}  // namespace jsrev::js
