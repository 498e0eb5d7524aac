#include "paths/path_extraction.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace jsrev::paths {
namespace {

using js::LiteralType;
using js::Node;
using js::NodeKind;

/// Syntactic type indicator for a leaf without data dependencies.
std::string type_indicator(const Node* leaf) {
  if (leaf->kind == NodeKind::kLiteral) {
    switch (leaf->lit) {
      case LiteralType::kString: return "@var_str";
      case LiteralType::kNumber: {
        const double v = leaf->num;
        return v == std::floor(v) ? "@var_int" : "@var_num";
      }
      case LiteralType::kBoolean: return "@var_bool";
      case LiteralType::kNull: return "@var_null";
      case LiteralType::kRegex: return "@var_re";
      case LiteralType::kNone: return "@var_null";
    }
  }
  if (leaf->kind == NodeKind::kThisExpression) return "@this";
  if (leaf->kind == NodeKind::kIdentifier) {
    // Without flow information the best static abstraction is a generic
    // variable tag; member property names get their own tag since they are
    // structurally different from variables.
    const Node* p = leaf->parent;
    if (p != nullptr && p->kind == NodeKind::kMemberExpression &&
        !p->has_flag(Node::kComputed) && p->children.size() == 2 &&
        p->children[1] == leaf) {
      return "@prop";
    }
    return "@var";
  }
  // Structural leaves (empty blocks, empty statements, ...).
  return std::string("@") + std::string(js::node_kind_name(leaf->kind));
}

/// Raw leaf value as code2vec uses (the "regular AST" ablation): the
/// concrete identifier name or literal text. Long strings truncate.
std::string raw_value(const Node* leaf) {
  switch (leaf->kind) {
    case NodeKind::kIdentifier:
      return leaf->str;
    case NodeKind::kThisExpression:
      return "this";
    case NodeKind::kLiteral:
      switch (leaf->lit) {
        case LiteralType::kString:
          return leaf->str.size() <= 16 ? leaf->str : leaf->str.substr(0, 16);
        case LiteralType::kNumber: {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", leaf->num);
          return buf;
        }
        case LiteralType::kBoolean:
          return leaf->bval ? "true" : "false";
        case LiteralType::kNull:
          return "null";
        case LiteralType::kRegex:
          return leaf->str;
        case LiteralType::kNone:
          return "null";
      }
      return "?";
    default:
      return std::string(js::node_kind_name(leaf->kind));
  }
}

}  // namespace

std::string leaf_value(const js::Node* leaf,
                       const analysis::DataFlowInfo* dataflow) {
  if (dataflow != nullptr && leaf->kind == NodeKind::kIdentifier &&
      dataflow->canonical_index(leaf) >= 0) {
    // Flow-linked leaf considered in isolation: tagged as linked. Each path
    // refines this into @vs (both endpoints are the same symbol) / @va+@vb
    // (two different linked symbols) — see Descent::emit.
    return "@vl";
  }
  return type_indicator(leaf);
}


namespace {

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

// The enumeration's working tables, beside the PathSet's node table (same
// preorder indices) and over one flat array of child slots, holes included.
struct Tables {
  std::vector<std::uint32_t> slot_of;  // per node: its slot in its parent
  std::vector<std::uint32_t> first;    // per node: its first child slot
  std::vector<std::uint32_t> count;    // per node: its child slots
  std::vector<std::uint32_t> leaf_of;  // per node: leaf index, or kNone
  std::vector<std::uint32_t> child;    // per slot: node index, or kNone
  std::vector<std::uint8_t> reach;     // per slot: the child's nearest-leaf
                                       // distance, capped at `far` (a hole's)
  std::vector<std::uint32_t> jump;     // per slot: the next slot of the same
                                       // node with a smaller reach, or its end
};

// Emits the partners of one source leaf within one window, in preorder.
struct Descent {
  const Tables& t;
  const std::vector<PathSet::Leaf>& leaves;
  std::vector<PathRecord>& out;
  std::size_t cap;
  std::uint64_t visited = 0;
  std::uint32_t source = 0;
  std::uint8_t up = 0;
  int down_max = 0;  // deepest level below the top node a partner may sit

  bool full() const { return out.size() >= cap; }

  // Slots [lo, hi) of one node, whose children sit `depth` levels below the
  // top node. A child is entered only if a leaf lies within reach under it,
  // so every entered node leads to a path; runs of out-of-reach slots are
  // crossed by jump links, each landing on a nearer slot.
  void visit(std::uint32_t lo, std::uint32_t hi, int depth) {
    const int budget = down_max - depth;
    for (std::uint32_t p = lo; p < hi && !full();) {
      ++visited;
      if (t.reach[p] > budget) {
        p = t.jump[p];
        continue;
      }
      const std::uint32_t y = t.child[p];
      if (t.leaf_of[y] != kNone) {
        emit(t.leaf_of[y], depth);
      } else {
        visit(t.first[y], t.first[y] + t.count[y], depth + 1);
      }
      ++p;
    }
  }

  // Flow-linked endpoint refinement. The paper preserves the concrete name
  // on flow-linked leaves so related paths carry a shared value. Raw names
  // are rename-fragile and any per-script numbering shifts when obfuscators
  // prepend machinery, so we encode the position-independent essence
  // instead: whether the path's two endpoints are the SAME flow-linked
  // symbol (@vs ... @vs) or two DIFFERENT ones (@va ... @vb).
  void emit(std::uint32_t target, int depth) {
    const std::int32_t a = leaves[source].symbol;
    const std::int32_t b = leaves[target].symbol;
    Ends ends = Ends::kOwn;
    if (a >= 0 && b >= 0) ends = a == b ? Ends::kSame : Ends::kDistinct;
    out.push_back({source, target, up, static_cast<std::uint8_t>(depth), ends});
  }
};

}  // namespace

PathSet enumerate_paths(const js::Node* program,
                        const analysis::DataFlowInfo* dataflow,
                        const PathConfig& cfg) {
  obs::Span span("paths.extract", "paths");
  if (cfg.max_length > kMaxPathLength || cfg.max_width > kMaxPathWidth) {
    throw std::invalid_argument(
        "enumerate_paths: path window " + std::to_string(cfg.max_length) +
        "/" + std::to_string(cfg.max_width) + " exceeds " +
        std::to_string(kMaxPathLength) + "/" + std::to_string(kMaxPathWidth));
  }
  PathSet set;
  Tables t;
  const bool flow = cfg.use_dataflow && dataflow != nullptr;

  // Node table, child slots and leaf table in one preorder walk.
  struct Pending {
    const Node* node;
    std::uint32_t parent;
    std::uint32_t slot;
  };
  std::vector<Pending> stack;
  if (program != nullptr) stack.push_back({program, kNone, 0});
  while (!stack.empty()) {
    const Pending p = stack.back();
    stack.pop_back();
    const auto x = static_cast<std::uint32_t>(set.kind_.size());
    set.kind_.push_back(p.node->kind);
    set.parent_.push_back(p.parent);
    t.slot_of.push_back(p.slot);
    if (p.parent != kNone) t.child[t.first[p.parent] + p.slot] = x;
    const js::ChildList& children = p.node->children;
    const auto n = static_cast<std::uint32_t>(children.size());
    t.first.push_back(static_cast<std::uint32_t>(t.child.size()));
    t.count.push_back(n);
    t.child.resize(t.child.size() + n, kNone);
    bool leaf = true;
    for (std::uint32_t k = n; k-- > 0;) {
      if (const Node* c = children[k]) {
        stack.push_back({c, x, k});
        leaf = false;
      }
    }
    if (!leaf) {
      t.leaf_of.push_back(kNone);
      continue;
    }
    t.leaf_of.push_back(static_cast<std::uint32_t>(set.leaves_.size()));
    PathSet::Leaf l;
    l.node = x;
    // Enhanced AST: abstracted values, refined per path by Ends.
    // Regular-AST ablation: raw code2vec-style leaf values (the paper's
    // Table IV shows this variant collapsing, FPR-first).
    l.value = cfg.use_dataflow ? leaf_value(p.node, dataflow)
                               : raw_value(p.node);
    if (flow && p.node->kind == NodeKind::kIdentifier) {
      l.symbol = dataflow->canonical_index(p.node);
    }
    set.leaves_.push_back(std::move(l));
  }

  // Nearest-leaf distance, children before parents (reverse preorder),
  // capped at `far`: no window reaches a leaf that deep (partners sit at
  // most max_length - 2 levels below a top node, and budgets are smaller
  // still), so a jump chain from a capped slot ends within `far` steps.
  const auto far =
      static_cast<std::uint8_t>(std::clamp(cfg.max_length - 2, 0, 255));
  const std::size_t n_nodes = set.kind_.size();
  std::vector<std::uint8_t> dist(n_nodes, far);
  for (std::size_t x = n_nodes; x-- > 1;) {
    if (t.leaf_of[x] != kNone) dist[x] = 0;
    std::uint8_t& d = dist[set.parent_[x]];
    d = static_cast<std::uint8_t>(std::min<int>(d, dist[x] + 1));
  }
  t.reach.resize(t.child.size());
  for (std::size_t p = 0; p < t.child.size(); ++p) {
    t.reach[p] = t.child[p] == kNone ? far : dist[t.child[p]];
  }
  // Jump links: the next slot with a strictly smaller reach (a monotonic
  // stack per node, right to left).
  t.jump.resize(t.child.size());
  std::vector<std::uint32_t> nearer;
  for (std::size_t x = 0; x < n_nodes; ++x) {
    const std::uint32_t end = t.first[x] + t.count[x];
    nearer.clear();
    for (std::uint32_t p = end; p > t.first[x];) {
      --p;
      while (!nearer.empty() && t.reach[nearer.back()] >= t.reach[p]) {
        nearer.pop_back();
      }
      t.jump[p] = nearer.empty() ? end : nearer.back();
      nearer.push_back(p);
    }
  }

  Descent d{t, set.leaves_, set.records_, cfg.max_paths};
  if (cfg.max_length >= 3 && cfg.max_width >= 1) {
    const auto n_leaves = static_cast<std::uint32_t>(set.leaves_.size());
    for (std::uint32_t i = 0; i < n_leaves && !d.full(); ++i) {
      d.source = i;
      std::uint32_t cur = set.leaves_[i].node;
      // A_m = the m-th ancestor; partners sit in its slots after cur's.
      for (int m = 1; m <= cfg.max_length - 2 && !d.full(); ++m) {
        const std::uint32_t top = set.parent_[cur];
        if (top == kNone) break;
        const std::uint64_t last =
            std::min<std::uint64_t>(t.count[top], std::uint64_t{t.slot_of[cur]} +
                                                      1 + cfg.max_width);
        d.up = static_cast<std::uint8_t>(m);
        d.down_max = cfg.max_length - 1 - m;
        d.visit(t.first[top] + t.slot_of[cur] + 1,
                t.first[top] + static_cast<std::uint32_t>(last), 1);
        cur = top;
      }
    }
  }
  set.visited_ = d.visited;

  // Workload-invariant accounting: total path volume, the per-script
  // distribution (how many scripts land in each size band) and the
  // enumeration's steps. All are pure functions of the corpus, so they live
  // in the deterministic export.
  static obs::Counter* extracted = obs::metrics().counter("paths.extracted");
  static obs::Histogram* per_script = obs::metrics().histogram(
      "paths.per_script",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  static obs::Counter* pairs_visited = obs::metrics().counter(
      "paths.pairs_visited", {},
      {obs::Unit::kCount, false,
       "Window slots, descent children and sibling jumps path enumeration "
       "examined"});
  extracted->add(set.size());
  per_script->observe(static_cast<double>(set.size()));
  pairs_visited->add(set.visited_);
  return set;
}

void PathSet::key_segments(std::size_t k,
                           std::vector<std::string_view>* out) const {
  const PathRecord& r = records_[k];
  std::string_view source = leaves_[r.source].value;
  std::string_view target = leaves_[r.target].value;
  if (r.ends == Ends::kSame) {
    source = target = "@vs";
  } else if (r.ends == Ends::kDistinct) {
    source = "@va";
    target = "@vb";
  }
  out->push_back(source);
  out->push_back("|");
  std::uint32_t x = leaves_[r.source].node;
  for (int s = 0; s < r.up; ++s) {
    out->push_back(js::node_kind_name(kind_[x]));
    out->push_back("^");
    x = parent_[x];
  }
  out->push_back(js::node_kind_name(kind_[x]));  // the top node
  // The way down is the target's chain up, written back to front.
  const std::size_t at = out->size();
  out->resize(at + 2u * r.down);
  std::uint32_t y = leaves_[r.target].node;
  for (std::size_t s = r.down; s-- > 0;) {
    (*out)[at + 2 * s] = "v";
    (*out)[at + 2 * s + 1] = js::node_kind_name(kind_[y]);
    y = parent_[y];
  }
  out->push_back("|");
  out->push_back(target);
}

std::uint64_t PathSet::hash(std::size_t k) const {
  std::vector<std::string_view> seg;
  key_segments(k, &seg);
  return hash_segments(fnv1a64_begin(), seg.data(), seg.size());
}

PathContext PathSet::context(std::size_t k) const {
  std::vector<std::string_view> seg;
  return render(k, &seg);
}

std::vector<PathContext> PathSet::contexts() const {
  std::vector<PathContext> out;
  out.reserve(size());
  std::vector<std::string_view> seg;
  for (std::size_t k = 0; k < size(); ++k) out.push_back(render(k, &seg));
  return out;
}

PathContext PathSet::render(std::size_t k,
                            std::vector<std::string_view>* seg) const {
  seg->clear();
  key_segments(k, seg);
  PathContext pc;
  pc.source_value = seg->front();
  pc.target_value = seg->back();
  std::size_t length = 0;
  for (std::size_t s = 2; s + 2 < seg->size(); ++s) length += (*seg)[s].size();
  pc.path.reserve(length);
  for (std::size_t s = 2; s + 2 < seg->size(); ++s) pc.path += (*seg)[s];
  return pc;
}

std::vector<PathContext> extract_paths(const js::Node* program,
                                       const analysis::DataFlowInfo* dataflow,
                                       const PathConfig& cfg) {
  return enumerate_paths(program, dataflow, cfg).contexts();
}

}  // namespace jsrev::paths
