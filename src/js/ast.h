// ESTree-style abstract syntax tree over a compact, index-based arena.
//
// Nodes use a uniform representation: a kind tag, a small scalar payload
// (string / number / flags), and an ordered child list whose slot meanings
// are fixed per kind (documented below). The uniform layout keeps generic
// traversal, path extraction, and rewriting transforms simple, at the cost
// of per-kind accessors instead of per-kind structs.
//
// Storage model (the perf-critical part):
//  * All nodes of one tree live in the arena's TreeStore. During building
//    they are allocated from stable fixed-size chunks; AstArena::compact()
//    (run automatically at the end of every parse) rewrites the reachable
//    tree into one contiguous std::vector<Node> in preorder, so `id == self
//    == physical index` and whole-tree walks touch memory linearly.
//    Detached garbage nodes are dropped by compaction.
//  * String payloads are interned in a per-arena AtomTable: Node::str is an
//    Atom — a 4-byte AtomId plus the table pointer — so equal strings share
//    one id and same-arena equality is an integer compare. Atom exposes a
//    std::string-shaped surface (==, +, implicit conversion, begin/end,
//    size/empty/substr) and re-interns on assignment, keeping call sites
//    source-compatible.
//  * Child lists are (offset, length, capacity) slices into one shared
//    std::vector<NodeId> per arena; ChildList exposes the std::vector<Node*>
//    API (push_back, operator[], iteration, insert, ...) as a shim over the
//    slice, so there is no per-node heap allocation at all.
//
// Pointer stability contract: Node* stays valid across arena moves and
// across finalize_tree, but NOT across AstArena::compact() — compact returns
// the relocated root and every other outside pointer must be re-derived.
// The parser compacts before returning, so consumers of parse() always see
// a compact tree; transforms that mutate the tree afterwards allocate from
// fresh chunks and simply re-run finalize_tree (no relocation).
//
// Child slot conventions (slots may be nullptr where marked optional):
//   Program                children = statements
//   Identifier             str = name
//   Literal                lit = literal type; str = string/regex raw,
//                          num = numeric value, bval = bool value
//   ArrayExpression        children = elements (nullptr for holes)
//   ObjectExpression       children = Property nodes
//   Property               children = {key, value}; flag kComputed
//   FunctionDeclaration    str = name; children = {param..., body}
//   FunctionExpression     str = optional name; children = {param..., body}
//   ArrowFunctionExpression children = {param..., body}
//   SequenceExpression     children = expressions
//   UnaryExpression        str = operator; children = {argument}
//   UpdateExpression       str = operator; flag kPrefix; children = {argument}
//   BinaryExpression       str = operator; children = {left, right}
//   AssignmentExpression   str = operator; children = {left, right}
//   LogicalExpression      str = operator; children = {left, right}
//   MemberExpression       flag kComputed; children = {object, property}
//   ConditionalExpression  children = {test, consequent, alternate}
//   CallExpression         children = {callee, arg...}
//   NewExpression          children = {callee, arg...}
//   ThisExpression         (no payload)
//   BlockStatement         children = statements
//   ExpressionStatement    children = {expression}
//   IfStatement            children = {test, consequent, alternate?}
//   LabeledStatement       str = label; children = {body}
//   BreakStatement         str = optional label
//   ContinueStatement      str = optional label
//   WithStatement          children = {object, body}
//   SwitchStatement        children = {discriminant, SwitchCase...}
//   SwitchCase             children = {test?, consequent...}; test==nullptr
//                          encodes `default:` (slot always present)
//   ReturnStatement        children = {argument?} (may be empty)
//   ThrowStatement         children = {argument}
//   TryStatement           children = {block, CatchClause?, finalizer?}
//   CatchClause            children = {param, body}
//   WhileStatement         children = {test, body}
//   DoWhileStatement       children = {body, test}
//   ForStatement           children = {init?, test?, update?, body}
//   ForInStatement         children = {left, right, body}; flag kOfLoop for
//                          for-of
//   VariableDeclaration    str = kind ("var"/"let"/"const");
//                          children = VariableDeclarator...
//   VariableDeclarator     children = {id, init?}
//   EmptyStatement         (no payload)
//   DebuggerStatement      (no payload)
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "js/atom_table.h"

namespace jsrev::js {

enum class NodeKind : std::uint8_t {
  kProgram,
  kIdentifier,
  kLiteral,
  kArrayExpression,
  kObjectExpression,
  kProperty,
  kFunctionDeclaration,
  kFunctionExpression,
  kArrowFunctionExpression,
  kSequenceExpression,
  kUnaryExpression,
  kUpdateExpression,
  kBinaryExpression,
  kAssignmentExpression,
  kLogicalExpression,
  kMemberExpression,
  kConditionalExpression,
  kCallExpression,
  kNewExpression,
  kThisExpression,
  kBlockStatement,
  kExpressionStatement,
  kIfStatement,
  kLabeledStatement,
  kBreakStatement,
  kContinueStatement,
  kWithStatement,
  kSwitchStatement,
  kSwitchCase,
  kReturnStatement,
  kThrowStatement,
  kTryStatement,
  kCatchClause,
  kWhileStatement,
  kDoWhileStatement,
  kForStatement,
  kForInStatement,
  kVariableDeclaration,
  kVariableDeclarator,
  kEmptyStatement,
  kDebuggerStatement,
};

/// Number of distinct node kinds (for feature vectors indexed by kind).
inline constexpr int kNodeKindCount =
    static_cast<int>(NodeKind::kDebuggerStatement) + 1;

/// ESTree name of a node kind, e.g. "BinaryExpression".
std::string_view node_kind_name(NodeKind k) noexcept;

enum class LiteralType : std::uint8_t {
  kNone,    // not a literal node
  kString,
  kNumber,
  kBoolean,
  kNull,
  kRegex,
};

/// Index of a node within its TreeStore ("slot"); after compaction the slot
/// equals the preorder id. kNullId marks a hole (nullptr child).
using NodeId = std::uint32_t;
inline constexpr NodeId kNullId = 0xFFFFFFFFu;

class TreeStore;
struct Node;

// ---------------------------------------------------------------------------
// Atom: interned string payload with a std::string-shaped read surface.
// Copy CONSTRUCTION copies (table, id) verbatim — correct within one arena
// (node copies during compaction). Copy ASSIGNMENT onto an atom already
// bound to a different table re-interns by content, which is what
// cross-arena payload copies (clone) need.
// ---------------------------------------------------------------------------

class Atom {
 public:
  Atom() = default;
  Atom(AtomTable* tab, AtomId id) noexcept : tab_(tab), id_(id) {}
  Atom(const Atom&) = default;

  Atom& operator=(const Atom& o) {
    if (tab_ == nullptr || tab_ == o.tab_) {
      tab_ = o.tab_;
      id_ = o.id_;
    } else {
      id_ = tab_->intern(o.view());
    }
    return *this;
  }
  Atom& operator=(std::string_view s) {
    id_ = tab_->intern(s);
    return *this;
  }
  Atom& operator=(const std::string& s) { return *this = std::string_view(s); }
  Atom& operator=(const char* s) { return *this = std::string_view(s); }

  AtomId id() const noexcept { return id_; }
  const AtomTable* table() const noexcept { return tab_; }

  std::string_view view() const noexcept {
    return tab_ != nullptr ? tab_->view(id_) : std::string_view{};
  }
  /// Cached fnv1a64 of the payload (== fnv1a64(view())).
  std::uint64_t hash() const noexcept {
    return tab_ != nullptr ? tab_->hash(id_) : fnv1a64({});
  }

  operator std::string_view() const noexcept { return view(); }
  operator std::string() const { return std::string(view()); }

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept {
    return tab_ != nullptr ? tab_->length(id_) : 0;
  }
  const char* data() const noexcept { return view().data(); }
  const char* begin() const noexcept { return view().data(); }
  const char* end() const noexcept {
    const std::string_view v = view();
    return v.data() + v.size();
  }
  char operator[](std::size_t i) const noexcept { return view()[i]; }
  std::string substr(std::size_t pos,
                     std::size_t n = std::string_view::npos) const {
    return std::string(view().substr(pos, n));
  }
  std::size_t find(char c, std::size_t pos = 0) const noexcept {
    return view().find(c, pos);
  }
  std::size_t find(std::string_view s, std::size_t pos = 0) const noexcept {
    return view().find(s, pos);
  }

 private:
  AtomTable* tab_ = nullptr;
  AtomId id_ = 0;
};

inline bool operator==(const Atom& a, const Atom& b) noexcept {
  if (a.table() == b.table()) return a.id() == b.id();
  return a.view() == b.view();
}
inline bool operator==(const Atom& a, std::string_view b) noexcept {
  return a.view() == b;
}
inline bool operator==(const Atom& a, const std::string& b) noexcept {
  return a.view() == std::string_view(b);
}
inline bool operator==(const Atom& a, const char* b) noexcept {
  return a.view() == std::string_view(b);
}
inline std::string operator+(const Atom& a, const char* b) {
  return std::string(a.view()) + b;
}
inline std::string operator+(const char* a, const Atom& b) {
  return a + std::string(b.view());
}
inline std::string operator+(const Atom& a, const std::string& b) {
  return std::string(a.view()) + b;
}
inline std::string operator+(const std::string& a, const Atom& b) {
  return a + std::string(b.view());
}
inline std::string operator+(std::string&& a, const Atom& b) {
  a.append(b.view());
  return std::move(a);
}
inline std::string operator+(const Atom& a, const Atom& b) {
  return std::string(a.view()) + std::string(b.view());
}

// ---------------------------------------------------------------------------
// ChildList: (offset, length, capacity) slice into the arena's shared
// NodeId pool, shimming the std::vector<Node*> API. Like the vector it
// replaces, a const ChildList hands out non-const Node* — constness applies
// to the list structure, not the pointees. Growth relocates the slice within
// the pool (amortized doubling), so iterators/ChildRefs obey std::vector
// invalidation rules for the list they refer to; mutating OTHER nodes'
// lists never invalidates them.
// ---------------------------------------------------------------------------

class ChildList;

/// Proxy reference returned by ChildList::operator[]; reads/writes the
/// NodeId behind a child slot while presenting as a Node*.
class ChildRef {
 public:
  ChildRef(TreeStore* s, std::uint32_t pos) noexcept : s_(s), pos_(pos) {}
  operator Node*() const noexcept;
  Node* operator->() const noexcept { return static_cast<Node*>(*this); }
  ChildRef& operator=(Node* n) noexcept;
  ChildRef& operator=(const ChildRef& o) noexcept {
    return *this = static_cast<Node*>(o);
  }

 private:
  TreeStore* s_;
  std::uint32_t pos_;  // absolute index into the pool
};

class ChildIter {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Node*;
  using difference_type = std::ptrdiff_t;
  using pointer = Node* const*;
  using reference = Node*;

  ChildIter() = default;
  ChildIter(const ChildList* list, std::uint32_t i) noexcept
      : list_(list), i_(i) {}

  Node* operator*() const noexcept;
  Node* operator[](difference_type d) const noexcept {
    return *(*this + d);
  }

  ChildIter& operator++() noexcept { ++i_; return *this; }
  ChildIter operator++(int) noexcept { ChildIter t = *this; ++i_; return t; }
  ChildIter& operator--() noexcept { --i_; return *this; }
  ChildIter operator--(int) noexcept { ChildIter t = *this; --i_; return t; }
  ChildIter& operator+=(difference_type d) noexcept {
    i_ = static_cast<std::uint32_t>(static_cast<difference_type>(i_) + d);
    return *this;
  }
  ChildIter& operator-=(difference_type d) noexcept { return *this += -d; }

  friend ChildIter operator+(ChildIter it, difference_type d) noexcept {
    it += d;
    return it;
  }
  friend ChildIter operator+(difference_type d, ChildIter it) noexcept {
    it += d;
    return it;
  }
  friend ChildIter operator-(ChildIter it, difference_type d) noexcept {
    it -= d;
    return it;
  }
  friend difference_type operator-(const ChildIter& a,
                                   const ChildIter& b) noexcept {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(const ChildIter& a, const ChildIter& b) noexcept {
    return a.i_ == b.i_;
  }
  friend bool operator!=(const ChildIter& a, const ChildIter& b) noexcept {
    return a.i_ != b.i_;
  }
  friend bool operator<(const ChildIter& a, const ChildIter& b) noexcept {
    return a.i_ < b.i_;
  }

  std::uint32_t index() const noexcept { return i_; }

 private:
  const ChildList* list_ = nullptr;
  std::uint32_t i_ = 0;
};

class ChildList {
 public:
  using iterator = ChildIter;
  using const_iterator = ChildIter;
  using value_type = Node*;

  ChildList() = default;

  std::size_t size() const noexcept { return len(); }
  bool empty() const noexcept { return len() == 0; }

  Node* at(std::uint32_t i) const noexcept;
  Node* operator[](std::size_t i) const noexcept {
    return at(static_cast<std::uint32_t>(i));
  }
  ChildRef operator[](std::size_t i) noexcept {
    return ChildRef(store_, off_ + static_cast<std::uint32_t>(i));
  }
  Node* back() const noexcept { return at(len() - 1); }
  Node* front() const noexcept { return at(0); }

  ChildIter begin() const noexcept { return ChildIter(this, 0); }
  ChildIter end() const noexcept { return ChildIter(this, len()); }

  void push_back(Node* n);
  void pop_back() noexcept { --len_; }
  void clear() noexcept { len_ = 0; }
  // Capacity is implicit (see len_ below), so there is nowhere to remember a
  // reservation; grow() recovers the amortized-doubling behavior on its own.
  void reserve(std::size_t) noexcept {}
  ChildIter insert(ChildIter pos, Node* n);

  ChildList& operator=(const std::vector<Node*>& v);

  // --- arena plumbing (TreeStore/compaction internals) ---
  void bind(TreeStore* s) noexcept { store_ = s; }
  void set_slice(std::uint32_t off, std::uint32_t len,
                 std::uint32_t cap) noexcept {
    off_ = off;
    len_ = cap == len ? (len | kExactBit) : len;
  }
  std::uint32_t slice_offset() const noexcept { return off_; }
  TreeStore* store() const noexcept { return store_; }

 private:
  // Capacity is not stored: a slice is either exact (kExactBit set, capacity
  // == length; what compaction emits) or build-mode, where slices are always
  // allocated at power-of-two sizes so ceil_pow2(len) understates the real
  // allocation at worst (after pop_back/shrinking assignment), never
  // overstates it. Dropping the cap word keeps Node at 64 bytes.
  static constexpr std::uint32_t kExactBit = 0x80000000u;

  std::uint32_t len() const noexcept { return len_ & ~kExactBit; }
  std::uint32_t capacity_hint() const noexcept {
    const std::uint32_t n = len();
    if ((len_ & kExactBit) != 0) return n;
    if (n == 0) return 0;
    std::uint32_t c = 2;
    while (c < n) c <<= 1;
    return c;
  }
  void grow(std::uint32_t min_cap);

  TreeStore* store_ = nullptr;
  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
};

// ---------------------------------------------------------------------------
// Node: 64 bytes — exactly one cache line (down from 96 + one heap
// child-vector + string storage per node in the pointer-heavy layout).
// ---------------------------------------------------------------------------

struct Node {
  NodeKind kind = NodeKind::kProgram;
  LiteralType lit = LiteralType::kNone;

  // Per-kind boolean flags.
  static constexpr std::uint8_t kComputed = 1;  // a[b] member / computed key
  static constexpr std::uint8_t kPrefix = 2;    // ++x vs x++
  static constexpr std::uint8_t kOfLoop = 4;    // for-of vs for-in
  std::uint8_t flags = 0;
  bool bval = false;

  // 1-based source line of the construct's first token; 0 when unknown (nodes
  // synthesized by transforms). Stamped by the parser and propagated upward by
  // finalize_tree / compaction so every parsed ancestor carries its earliest
  // descendant's line.
  std::uint32_t line = 0;

  // Filled by AstArena::compact / finalize_tree: stable preorder id used by
  // path extraction and data-flow analysis. After compaction id == self.
  std::int32_t id = -1;
  // Physical slot of this node in its TreeStore (assigned at allocation,
  // remapped to the preorder index by compaction).
  NodeId self = kNullId;

  // Scalar payload; meaning depends on kind (see header comment).
  double num = 0.0;
  Atom str;
  ChildList children;

  Node* parent = nullptr;

  bool has_flag(std::uint8_t f) const noexcept { return (flags & f) != 0; }

  bool is_function() const noexcept {
    return kind == NodeKind::kFunctionDeclaration ||
           kind == NodeKind::kFunctionExpression ||
           kind == NodeKind::kArrowFunctionExpression;
  }
};

/// Replaces `dst`'s payload (kind, flags, scalars, child slice) with `src`'s
/// while keeping dst's physical slot identity. A plain `*dst = *src` also
/// copies `self`, so any child list later rebuilt from Node* values would
/// silently re-point dst's tree position at the donor's slot — resurrecting
/// whatever stale subtree the donor holds by then. The donor must be
/// abandoned by the caller: the two nodes share one child slice afterwards,
/// and only the node that stays in the tree may keep being mutated.
inline void replace_node(Node* dst, const Node& src) {
  const NodeId keep = dst->self;
  *dst = src;
  dst->self = keep;
}

// ---------------------------------------------------------------------------
// TreeStore: the arena's backing storage. Heap-allocated and address-stable
// (AstArena holds it by unique_ptr), so nodes can point to it across arena
// moves.
// ---------------------------------------------------------------------------

class TreeStore {
 public:
  TreeStore() = default;
  ~TreeStore();
  TreeStore(const TreeStore&) = delete;
  TreeStore& operator=(const TreeStore&) = delete;

  Node* alloc(NodeKind kind) {
    const NodeId slot = compact_count_ + overflow_count_;
    const std::uint32_t in_chunk = overflow_count_ & kChunkMask;
    if (in_chunk == 0) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    }
    ++overflow_count_;
    ++total_allocated_;
    Node* n = &chunks_.back()[in_chunk];
    n->kind = kind;
    n->self = slot;
    n->str = Atom(&atoms_, 0);
    n->children.bind(this);
    return n;
  }

  Node* node_ptr(NodeId slot) noexcept {
    if (slot < compact_count_) return &compact_[slot];
    const NodeId o = slot - compact_count_;
    return &chunks_[o >> kChunkShift][o & kChunkMask];
  }

  std::vector<NodeId>& pool() noexcept { return pool_; }
  const std::vector<NodeId>& pool() const noexcept { return pool_; }
  AtomTable& atoms() noexcept { return atoms_; }
  const AtomTable& atoms() const noexcept { return atoms_; }

  /// Rewrites the tree under `root` into contiguous preorder storage:
  /// preorder ids/self, parent pointers, line propagation, children as
  /// preorder-ordered slices in a fresh pool. Unreachable (detached) nodes
  /// are dropped. Every outside Node* except the returned root is
  /// invalidated. Also settles the obs arena gauges.
  Node* compact(Node* root);

  /// Total nodes ever allocated from this store, including nodes dropped by
  /// compaction (mirrors the old AstArena::size() contract).
  std::size_t allocated() const noexcept { return total_allocated_; }
  /// Nodes in the contiguous preorder region (0 before the first compact).
  std::size_t compact_size() const noexcept { return compact_count_; }

  /// Heap footprint of node storage + child pool + atom table.
  std::size_t memory_bytes() const noexcept {
    return compact_.capacity() * sizeof(Node) +
           chunks_.size() * kChunkSize * sizeof(Node) +
           pool_.capacity() * sizeof(NodeId) + atoms_.memory_bytes();
  }

  /// Pre-sizes the pool and atom storage from the source size (parser
  /// heuristic: ~1 AST node per 6 source bytes, ~1 child slot per node).
  void reserve_for_source(std::size_t source_bytes) {
    const std::size_t nodes = source_bytes / 6 + 8;
    pool_.reserve(nodes + nodes / 2);
    atoms_.reserve_bytes(source_bytes / 8 + 64);
  }

 private:
  static constexpr std::uint32_t kChunkShift = 7;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// Publishes allocation/footprint deltas to the obs registry (called from
  /// compact() and the destructor so the hot path never touches metrics).
  void settle_gauges(bool dying) noexcept;

  std::vector<Node> compact_;  // preorder nodes; capacity fixed per compact
  std::uint32_t compact_count_ = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_;  // build/post-compact nodes
  std::uint32_t overflow_count_ = 0;
  std::vector<NodeId> pool_;
  AtomTable atoms_;
  std::size_t total_allocated_ = 0;
  // Gauge bookkeeping: what this store has already published.
  std::size_t reported_nodes_ = 0;
  std::size_t reported_bytes_ = 0;
  std::size_t reported_atom_bytes_ = 0;
};

// --- out-of-line-in-header shims that need TreeStore complete --------------

inline ChildRef::operator Node*() const noexcept {
  const NodeId id = s_->pool()[pos_];
  return id == kNullId ? nullptr : s_->node_ptr(id);
}

inline ChildRef& ChildRef::operator=(Node* n) noexcept {
  s_->pool()[pos_] = n == nullptr ? kNullId : n->self;
  return *this;
}

inline Node* ChildIter::operator*() const noexcept { return list_->at(i_); }

inline Node* ChildList::at(std::uint32_t i) const noexcept {
  const NodeId id = store_->pool()[off_ + i];
  return id == kNullId ? nullptr : store_->node_ptr(id);
}

inline void ChildList::grow(std::uint32_t min_cap) {
  std::uint32_t cap = 2;
  while (cap < min_cap) cap <<= 1;
  std::vector<NodeId>& p = store_->pool();
  const std::uint32_t off = static_cast<std::uint32_t>(p.size());
  p.resize(p.size() + cap, kNullId);
  const std::uint32_t n = len();
  for (std::uint32_t i = 0; i < n; ++i) p[off + i] = p[off_ + i];
  off_ = off;
  len_ = n;  // clears kExactBit: the fresh slice is build-mode sized
}

inline void ChildList::push_back(Node* n) {
  if (len() == capacity_hint()) grow(len() + 1);
  store_->pool()[off_ + len_++] = n == nullptr ? kNullId : n->self;
}

inline ChildIter ChildList::insert(ChildIter pos, Node* n) {
  const std::uint32_t i = pos.index();
  if (len() == capacity_hint()) grow(len() + 1);
  std::vector<NodeId>& p = store_->pool();
  for (std::uint32_t k = len(); k > i; --k) p[off_ + k] = p[off_ + k - 1];
  p[off_ + i] = n == nullptr ? kNullId : n->self;
  ++len_;
  return ChildIter(this, i);
}

inline ChildList& ChildList::operator=(const std::vector<Node*>& v) {
  len_ = 0;
  if (!v.empty() && v.size() > capacity_hint()) {
    grow(static_cast<std::uint32_t>(v.size()));
  }
  std::vector<NodeId>& p = store_->pool();
  for (Node* n : v) p[off_ + len_++] = n == nullptr ? kNullId : n->self;
  return *this;
}

// ---------------------------------------------------------------------------
// AstArena / Ast: the public owning handles (API-compatible with the
// pointer-heavy layout).
// ---------------------------------------------------------------------------

/// Owns every node of one tree. Nodes are allocated into the arena's
/// TreeStore and freed together; pointers remain valid for the arena's
/// lifetime (modulo compact(), see the header comment).
class AstArena {
 public:
  AstArena() : store_(std::make_unique<TreeStore>()) {}
  AstArena(const AstArena&) = delete;
  AstArena& operator=(const AstArena&) = delete;
  AstArena(AstArena&&) = default;
  AstArena& operator=(AstArena&&) = default;

  Node* make(NodeKind kind) { return store_->alloc(kind); }

  Node* identifier(std::string_view name) {
    Node* n = make(NodeKind::kIdentifier);
    n->str = name;
    return n;
  }

  Node* string_literal(std::string_view value) {
    Node* n = make(NodeKind::kLiteral);
    n->lit = LiteralType::kString;
    n->str = value;
    return n;
  }

  Node* number_literal(double value) {
    Node* n = make(NodeKind::kLiteral);
    n->lit = LiteralType::kNumber;
    n->num = value;
    return n;
  }

  Node* bool_literal(bool value) {
    Node* n = make(NodeKind::kLiteral);
    n->lit = LiteralType::kBoolean;
    n->bval = value;
    return n;
  }

  Node* null_literal() {
    Node* n = make(NodeKind::kLiteral);
    n->lit = LiteralType::kNull;
    return n;
  }

  /// Total nodes ever allocated (including any dropped by compaction).
  std::size_t size() const noexcept { return store_->allocated(); }

  /// See TreeStore::compact. Returns the relocated root.
  Node* compact(Node* root) { return store_->compact(root); }

  TreeStore& store() noexcept { return *store_; }
  const TreeStore& store() const noexcept { return *store_; }

  /// Heap footprint (nodes + child pool + atoms) for the obs gauges and
  /// ast_layout_test's bytes/node bound.
  std::size_t memory_bytes() const noexcept { return store_->memory_bytes(); }

 private:
  std::unique_ptr<TreeStore> store_;
};

/// A parsed program: the arena plus its root. Movable, non-copyable.
struct Ast {
  AstArena arena;
  Node* root = nullptr;

  /// Compacts the tree into preorder-contiguous storage (root is updated).
  void compact() {
    if (root != nullptr) root = arena.compact(root);
  }
};

/// Assigns preorder ids and parent pointers below `root` (skips nullptr
/// children), and pulls each node's `line` back to the minimum known line in
/// its subtree (nodes the parser allocated after consuming part of their
/// children would otherwise carry a later token's line). Returns the number
/// of nodes visited. Must be re-run after any structural rewrite before
/// analyses that rely on ids/parents. Does NOT relocate nodes (unlike
/// AstArena::compact), so transforms may keep Node* across it.
int finalize_tree(Node* root);

}  // namespace jsrev::js
