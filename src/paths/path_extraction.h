// AST path-context extraction over the (enhanced) AST.
//
// A path is a triple <x_s, n_1..n_k, x_t> between two AST leaves, where the
// middle is the node-kind sequence along the tree walk from one leaf up to
// the lowest common ancestor and down to the other leaf (with direction
// markers). Limits: maximum path length (node count, default 12) and maximum
// width (child-index distance at the common ancestor, default 4), following
// code2vec and the paper.
//
// Leaf values:
//  * identifier leaves that participate in a data-dependency edge keep their
//    concrete name (so two paths sharing a flow collide on the value);
//  * all other leaves are abstracted to indicators: `@var_str`, `@var_int`,
//    `@var_num`, `@var_bool`, `@var_re`, `@var_null`, `@var_obj`, or the
//    literal's type tag (`@lit_str` etc. become the same @var_ tags to keep
//    the vocabulary small, matching the paper's examples which use @var_*
//    for both).
//
// When `use_dataflow` is disabled ("regular AST" ablation in Table IV), every
// leaf is abstracted by syntactic type only.
//
// Enumeration is linear in the output. A path from leaf i to a later leaf j
// tops out at some ancestor A_m of i (m up-steps, m <= max_length - 2), with
// j in one of the max_width child slots of A_m after the slot i descends
// from, at most max_length - 1 - m levels down. enumerate_paths walks exactly
// those windows — m ascending, slots ascending, each slot's subtree in
// preorder — which is ascending-j order, so the max_paths cap keeps the
// same prefix an all-pairs scan would. A descent enters only subtrees with
// a leaf in reach (per-node nearest-leaf distance) and skips runs of
// out-of-reach siblings by jump links, so every step either emits a path or
// is one of a bounded number of steps toward one.
//
// A path is kept as a 12-byte PathRecord over the script's leaf table, not
// as strings: PathVocabView::lookup_all probes the vocabulary by streaming
// the key's segments, and PathSet::context renders a PathContext for
// training, Table VII and tests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataflow.h"
#include "js/ast.h"
#include "util/hash.h"

namespace jsrev::paths {

/// Window bounds a model may carry: a path's up and down step counts are
/// bytes, and slot arithmetic adds max_width to a 32-bit slot index.
inline constexpr int kMaxPathLength = 255;
inline constexpr int kMaxPathWidth = 65535;

struct PathConfig {
  int max_length = 12;  // maximum nodes along the path (k)
  int max_width = 4;    // maximum child-index distance at the top node
  bool use_dataflow = true;  // enhanced AST (false = regular-AST ablation)
  std::size_t max_paths = 20000;  // safety cap per script
};

struct PathContext {
  std::string source_value;  // x_s
  std::string path;          // n_1 ↑ ... ↓ n_k rendered as a string
  std::string target_value;  // x_t

  /// Canonical single-string form "x_s|path|x_t" used as the vocabulary key.
  std::string key() const { return source_value + "|" + path + "|" + target_value; }
};

/// FNV-1a continued over a key's segments in order: from fnv1a64_begin(),
/// the fnv1a64 of their concatenation.
inline std::uint64_t hash_segments(std::uint64_t h, const std::string_view* seg,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h = fnv1a64_step(h, seg[i]);
  return h;
}

/// Which values a path's two endpoints carry.
enum class Ends : std::uint8_t {
  kOwn,       // each leaf's own value
  kSame,      // @vs ... @vs: both leaves are one flow-linked symbol
  kDistinct,  // @va ... @vb: two different flow-linked symbols
};

/// One path, as indices into its script's leaf table.
struct PathRecord {
  std::uint32_t source = 0;  // leaf index of x_s
  std::uint32_t target = 0;  // leaf index of x_t (> source)
  std::uint8_t up = 0;       // parent steps from x_s to the top node
  std::uint8_t down = 0;     // parent steps from x_t to the top node
  Ends ends = Ends::kOwn;
};
static_assert(sizeof(PathRecord) == 12, "path record must stay small");

/// The paths of one script: a leaf table, the node kinds and parent links
/// their keys are read from, and one PathRecord per path in extraction
/// order.
class PathSet {
 public:
  struct Leaf {
    std::uint32_t node = 0;    // index into the node table
    std::int32_t symbol = -1;  // flow symbol (enhanced AST), else -1
    std::string value;         // the leaf's own value
  };

  std::size_t size() const { return records_.size(); }
  const PathRecord& operator[](std::size_t k) const { return records_[k]; }
  const std::vector<Leaf>& leaves() const { return leaves_; }

  /// Steps the enumeration took: window slots and descent children it
  /// examined, and the jumps over out-of-reach siblings (the counter behind
  /// `paths.pairs_visited`).
  std::uint64_t pairs_visited() const { return visited_; }

  /// Appends the segments of path k's vocabulary key: x_s, "|", the kinds
  /// from x_s up to the top node each followed by "^" (the top node's
  /// without), "v" and a kind for each step down to x_t, "|", x_t. They
  /// concatenate to context(k).key().
  void key_segments(std::size_t k, std::vector<std::string_view>* out) const;

  /// Leading segments of a record's key that depend only on its source
  /// leaf, ends and up: x_s, "|" and the kinds through the top node.
  static std::size_t head_segments(const PathRecord& r) {
    return 2u * r.up + 3u;
  }

  /// fnv1a64(context(k).key()), streamed over key_segments(k).
  std::uint64_t hash(std::size_t k) const;

  /// Path k as strings: the only code that builds a path string.
  PathContext context(std::size_t k) const;
  std::vector<PathContext> contexts() const;

 private:
  friend PathSet enumerate_paths(const js::Node*,
                                 const analysis::DataFlowInfo*,
                                 const PathConfig&);

  // context(k), with `seg` as scratch for the key segments.
  PathContext render(std::size_t k, std::vector<std::string_view>* seg) const;

  std::vector<js::NodeKind> kind_;      // node table, preorder
  std::vector<std::uint32_t> parent_;   // node table; 0xFFFFFFFF at the root
  std::vector<Leaf> leaves_;            // source order
  std::vector<PathRecord> records_;
  std::uint64_t visited_ = 0;
};

/// Abstracted value for a leaf (used for both endpoints). Public for tests.
std::string leaf_value(const js::Node* leaf,
                       const analysis::DataFlowInfo* dataflow);

/// Enumerates the paths of a finalized AST. `dataflow` may be null when
/// cfg.use_dataflow is false. Throws std::invalid_argument when
/// cfg.max_length exceeds kMaxPathLength or cfg.max_width kMaxPathWidth.
PathSet enumerate_paths(const js::Node* program,
                        const analysis::DataFlowInfo* dataflow,
                        const PathConfig& cfg = {});

/// enumerate_paths, rendered: the path contexts in extraction order.
std::vector<PathContext> extract_paths(const js::Node* program,
                                       const analysis::DataFlowInfo* dataflow,
                                       const PathConfig& cfg = {});

}  // namespace jsrev::paths
