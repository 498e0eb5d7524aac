// inline-indirection: undoes data- and call-indirection layers.
//
// Four sub-steps, run in order. The first three read scope analysis: the
// run's PassContext computes it once and recomputes it only after a sub-step
// has reported a change to the tree.
//
//   1. un-hoist single-use temporaries — inverts hoist_call_args: a
//      `var t = <expr>;` whose only other reference sits in the immediately
//      following statement is substituted there and the declaration dropped.
//   2. string-array decoder inlining — matches the `var A = [...]` table +
//      `function G(i){ return A[i - K] | atob(A[i - K]); }` getter shape
//      (the body's local collapses to the return form via sub-step 1),
//      optionally preceded by a `for(...) A.push(A.shift())` rotation, and
//      replaces every `G(<int>)` call with the decoded string literal.
//      Getter calls that would read the table before the rotation runs make
//      the whole pattern ineligible (the static value would be wrong).
//   3. literal/identifier array inlining — a `var X = [literals|idents]`
//      only ever read as `X[<int>]` has every such read replaced by the
//      element (Jfogs' fog-data and function-dispatch tables).
//   4. apply un-packing — `f.apply(null, [a, b])` → `f(a, b)` and
//      `o.m.apply(o, [a])` / `o["m"].apply(o, [a])` → `o.m(a)`.
//
// Declarations emptied by these rewrites are left for prune-dead; the
// fixpoint driver re-runs the pipeline until nothing changes.
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/scope.h"
#include "deob/deob.h"
#include "deob/internal.h"
#include "js/visitor.h"
#include "util/base64.h"

namespace jsrev::deob {
namespace {

using analysis::ScopeInfo;
using analysis::Symbol;
using detail::is_identifier;
using detail::is_inside;
using detail::is_null_literal;
using detail::is_number_literal;
using detail::is_string_literal;
using detail::numeric_value;
using js::LiteralType;
using js::Node;
using js::NodeKind;

int unhoist_temps(js::Ast& ast, const ScopeInfo& scopes) {
  int changes = 0;

  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    std::vector<Node*> v(list->begin(), list->end());
    bool list_changed = false;
    // Backwards, so a run of hoisted temps collapses into the statement that
    // follows the run in one sweep.
    for (int i = static_cast<int>(v.size()) - 2; i >= 0; --i) {
      Node* s = v[i];
      if (s->kind != NodeKind::kVariableDeclaration || s->str != "var" ||
          s->children.size() != 1) {
        continue;
      }
      Node* d = s->children[0];
      if (d->children.size() < 2 || d->children[1] == nullptr) continue;
      Node* id = d->children[0];
      Node* init = d->children[1];
      const Symbol* sym = scopes.symbol_for(id);
      if (sym == nullptr || sym->references.size() != 2 ||
          sym->writes.size() != 1) {
        continue;
      }
      const Node* use =
          sym->references[0] == id ? sym->references[1] : sym->references[0];
      Node* next = v[static_cast<std::size_t>(i) + 1];
      // The use must sit in the next statement, outside any nested function
      // (inlining into a closure would change when the value is computed)
      // and in a once-evaluated statement kind (never a loop header).
      switch (next->kind) {
        case NodeKind::kExpressionStatement:
        case NodeKind::kVariableDeclaration:
        case NodeKind::kReturnStatement:
        case NodeKind::kThrowStatement:
          break;
        default:
          continue;
      }
      if (!is_inside(use, next)) continue;
      bool crosses_function = false;
      for (const Node* p = use; p != nullptr && p != next; p = p->parent) {
        if (p->is_function()) {
          crosses_function = true;
          break;
        }
      }
      if (crosses_function) continue;
      js::replace_node(const_cast<Node*>(use), *init);
      v.erase(v.begin() + i);
      list_changed = true;
      ++changes;
    }
    if (list_changed) *list = v;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// String-array decoder inlining.
// ---------------------------------------------------------------------------

struct DecoderShape {
  Node* fn = nullptr;         // the getter FunctionDeclaration
  std::string array_name;
  double offset = 0;
  bool base64 = false;
};

struct ArrayShape {
  Node* declarator = nullptr;
  Node* id = nullptr;
  std::vector<std::string> values;
};

struct RotationShape {
  Node* stmt = nullptr;
  long long count = 0;
};

/// Matches `function G(p) { return A[p - K]; }` (or atob(...) of it).
bool match_decoder(Node* fn, DecoderShape& out) {
  if (fn->kind != NodeKind::kFunctionDeclaration || fn->str.empty()) {
    return false;
  }
  if (fn->children.size() != 2) return false;  // exactly one parameter
  Node* param = fn->children[0];
  Node* body = fn->children[1];
  if (param->kind != NodeKind::kIdentifier ||
      body->kind != NodeKind::kBlockStatement || body->children.size() != 1) {
    return false;
  }
  Node* ret = body->children[0];
  if (ret->kind != NodeKind::kReturnStatement || ret->children.empty() ||
      ret->children[0] == nullptr) {
    return false;
  }
  Node* expr = ret->children[0];
  bool base64 = false;
  if (expr->kind == NodeKind::kCallExpression && expr->children.size() == 2 &&
      is_identifier(expr->children[0], "atob")) {
    base64 = true;
    expr = expr->children[1];
  }
  if (expr->kind != NodeKind::kMemberExpression ||
      !expr->has_flag(Node::kComputed) ||
      expr->children[0]->kind != NodeKind::kIdentifier) {
    return false;
  }
  Node* index = expr->children[1];
  double offset = 0;
  if (is_identifier(index, param->str.view())) {
    offset = 0;
  } else if (index->kind == NodeKind::kBinaryExpression && index->str == "-" &&
             is_identifier(index->children[0], param->str.view()) &&
             is_number_literal(index->children[1])) {
    offset = index->children[1]->num;
  } else {
    return false;
  }
  out.fn = fn;
  out.array_name = std::string(expr->children[0]->str);
  out.offset = offset;
  out.base64 = base64;
  return true;
}

bool match_string_array(Node* stmt, std::unordered_map<std::string, ArrayShape>& out) {
  if (stmt->kind != NodeKind::kVariableDeclaration || stmt->str != "var") {
    return false;
  }
  bool any = false;
  for (Node* d : stmt->children) {
    if (d->children.size() < 2 || d->children[1] == nullptr) continue;
    Node* init = d->children[1];
    if (init->kind != NodeKind::kArrayExpression || init->children.empty()) {
      continue;
    }
    bool all_strings = true;
    for (const Node* e : init->children) {
      if (!is_string_literal(e)) {
        all_strings = false;
        break;
      }
    }
    if (!all_strings) continue;
    ArrayShape shape;
    shape.declarator = d;
    shape.id = d->children[0];
    for (const Node* e : init->children) shape.values.emplace_back(e->str);
    out.emplace(std::string(d->children[0]->str), shape);
    any = true;
  }
  return any;
}

/// Matches `for (var k = 0; k < N; k++) A.push(A.shift());` and returns the
/// rotated array's name.
bool match_rotation(Node* stmt, std::string& array_name, RotationShape& out) {
  if (stmt->kind != NodeKind::kForStatement) return false;
  Node* init = stmt->children[0];
  Node* test = stmt->children[1];
  Node* update = stmt->children[2];
  Node* body = stmt->children[3];
  if (init == nullptr || test == nullptr || update == nullptr) return false;
  if (init->kind != NodeKind::kVariableDeclaration ||
      init->children.size() != 1) {
    return false;
  }
  Node* d = init->children[0];
  if (d->children.size() < 2 || !is_number_literal(d->children[1]) ||
      d->children[1]->num != 0) {
    return false;
  }
  const std::string_view counter = d->children[0]->str.view();
  if (test->kind != NodeKind::kBinaryExpression || test->str != "<" ||
      !is_identifier(test->children[0], counter) ||
      !is_number_literal(test->children[1])) {
    return false;
  }
  const double n = test->children[1]->num;
  if (n < 0 || n != std::floor(n) || n > 1e6) return false;
  if (update->kind != NodeKind::kUpdateExpression || update->str != "++" ||
      !is_identifier(update->children[0], counter)) {
    return false;
  }
  Node* expr = body;
  if (body->kind == NodeKind::kBlockStatement) {
    if (body->children.size() != 1) return false;
    expr = body->children[0];
  }
  if (expr->kind != NodeKind::kExpressionStatement) return false;
  Node* push = expr->children[0];
  // A.push(A.shift())
  if (push->kind != NodeKind::kCallExpression || push->children.size() != 2 ||
      push->children[0]->kind != NodeKind::kMemberExpression ||
      push->children[0]->has_flag(Node::kComputed) ||
      !is_identifier(push->children[0]->children[1], "push") ||
      push->children[0]->children[0]->kind != NodeKind::kIdentifier) {
    return false;
  }
  Node* shift = push->children[1];
  if (shift->kind != NodeKind::kCallExpression ||
      shift->children.size() != 1 ||
      shift->children[0]->kind != NodeKind::kMemberExpression ||
      shift->children[0]->has_flag(Node::kComputed) ||
      !is_identifier(shift->children[0]->children[1], "shift") ||
      !is_identifier(shift->children[0]->children[0],
                     push->children[0]->children[0]->str.view())) {
    return false;
  }
  array_name = std::string(push->children[0]->children[0]->str);
  out.stmt = stmt;
  out.count = static_cast<long long>(n);
  return true;
}

const Symbol* global_symbol(const ScopeInfo& scopes, std::string_view name,
                            bool function_only) {
  for (const auto& sym : scopes.symbols()) {
    if (sym->name == name && sym->scope == scopes.global_scope() &&
        (!function_only || sym->is_function)) {
      return sym.get();
    }
  }
  return nullptr;
}

int inline_decoders(js::Ast& ast, const ScopeInfo& scopes) {
  js::AstArena& arena = ast.arena;

  std::vector<DecoderShape> decoders;
  std::unordered_map<std::string, ArrayShape> arrays;
  std::unordered_map<std::string, RotationShape> rotations;
  for (Node* stmt : ast.root->children) {
    DecoderShape dec;
    if (match_decoder(stmt, dec)) decoders.push_back(dec);
    match_string_array(stmt, arrays);
    std::string rotated;
    RotationShape rot;
    if (match_rotation(stmt, rotated, rot)) rotations.emplace(rotated, rot);
  }

  int changes = 0;
  std::unordered_set<Node*> dead_rotations;
  for (const DecoderShape& dec : decoders) {
    const auto arr_it = arrays.find(dec.array_name);
    if (arr_it == arrays.end()) continue;
    const ArrayShape& arr = arr_it->second;
    const auto len = static_cast<long long>(arr.values.size());

    const Symbol* array_sym = scopes.symbol_for(arr.id);
    const Symbol* getter_sym =
        global_symbol(scopes, dec.fn->str.view(), /*function_only=*/true);
    if (array_sym == nullptr || getter_sym == nullptr) continue;

    const RotationShape* rot = nullptr;
    const auto rot_it = rotations.find(dec.array_name);
    if (rot_it != rotations.end()) rot = &rot_it->second;

    // The table must be written exactly once (its declaration) and only read
    // by the getter and the rotation loop.
    bool array_clean = true;
    for (const Node* w : array_sym->writes) {
      if (w != arr.id) array_clean = false;
    }
    for (const Node* r : array_sym->references) {
      const bool allowed = r == arr.id || is_inside(r, dec.fn) ||
                           (rot != nullptr && is_inside(r, rot->stmt));
      if (!allowed) array_clean = false;
    }
    if (!array_clean || !getter_sym->writes.empty()) continue;

    // Every getter reference must be a call with one statically-known index
    // — and none may execute before the rotation has happened.
    std::vector<std::pair<Node*, long long>> sites;
    bool sites_clean = true;
    for (const Node* r : getter_sym->references) {
      Node* call = r->parent;
      if (call == nullptr || call->kind != NodeKind::kCallExpression ||
          call->children[0] != r || call->children.size() != 2) {
        sites_clean = false;
        break;
      }
      const std::optional<double> idx = numeric_value(call->children[1]);
      if (!idx || *idx != std::floor(*idx)) {
        sites_clean = false;
        break;
      }
      const auto raw = static_cast<long long>(*idx) -
                       static_cast<long long>(dec.offset);
      if (raw < 0 || raw >= len) {
        sites_clean = false;
        break;
      }
      if (rot != nullptr && r->id < rot->stmt->id) {
        // Referenced before the rotation runs: the static decode would read
        // the unrotated table. Leave the whole pattern alone.
        sites_clean = false;
        break;
      }
      sites.emplace_back(call, raw);
    }
    if (!sites_clean || sites.empty()) continue;

    const long long shift = rot != nullptr ? rot->count % len : 0;
    bool all_inlined = true;
    for (const auto& [call, raw] : sites) {
      const std::string& stored =
          arr.values[static_cast<std::size_t>((raw + shift) % len)];
      std::string value = stored;
      if (dec.base64) {
        // Strict decode or skip the site: the script's decoder runs atob,
        // which throws on malformed entries — inlining the lenient decode's
        // truncation would change behavior (see fold-constants).
        std::optional<std::string> decoded = base64_decode_strict(stored);
        if (!decoded) {
          all_inlined = false;
          continue;
        }
        value = std::move(*decoded);
      }
      js::replace_node(call, *arena.string_literal(value));
      ++changes;
    }
    // With every call inlined the rotation's only observable effect is gone;
    // dropping it frees the table for unused-declaration pruning. Any site
    // left behind (undecodable entry) still reads the rotated table.
    if (rot != nullptr && all_inlined) dead_rotations.insert(rot->stmt);
  }

  if (!dead_rotations.empty()) {
    std::vector<Node*> kept;
    for (Node* stmt : ast.root->children) {
      if (dead_rotations.find(stmt) == dead_rotations.end()) {
        kept.push_back(stmt);
      }
    }
    ast.root->children = kept;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// Literal / identifier array inlining.
// ---------------------------------------------------------------------------

int inline_literal_arrays(js::Ast& ast, const ScopeInfo& scopes) {
  js::AstArena& arena = ast.arena;

  // Name uniqueness map: an identifier element may only be inlined when no
  // second symbol anywhere shares its name (no shadowing to mis-bind).
  std::unordered_map<std::string_view, int> name_count;
  for (const auto& sym : scopes.symbols()) ++name_count[sym->name];

  int changes = 0;
  const std::vector<Node*> declarators =
      js::collect(ast.root, [](Node* n) {
        return n->kind == NodeKind::kVariableDeclarator &&
               n->children.size() >= 2 && n->children[1] != nullptr &&
               n->children[1]->kind == NodeKind::kArrayExpression &&
               !n->children[1]->children.empty();
      });

  for (Node* d : declarators) {
    Node* id = d->children[0];
    Node* array = d->children[1];

    bool eligible = true;
    for (const Node* e : array->children) {
      if (e == nullptr) {
        eligible = false;
        break;
      }
      if (e->kind == NodeKind::kLiteral && e->lit != LiteralType::kRegex) {
        continue;
      }
      if (e->kind == NodeKind::kIdentifier &&
          name_count[e->str.view()] <= 1) {
        continue;
      }
      eligible = false;
      break;
    }
    if (!eligible) continue;

    const Symbol* sym = scopes.symbol_for(id);
    if (sym == nullptr) continue;
    bool writes_clean = true;
    for (const Node* w : sym->writes) {
      if (w != id) writes_clean = false;
    }
    if (!writes_clean) continue;

    const auto len = static_cast<long long>(array->children.size());
    std::vector<std::pair<Node*, long long>> reads;
    bool reads_clean = true;
    for (const Node* r : sym->references) {
      if (r == id) continue;
      Node* m = r->parent;
      if (m == nullptr || m->kind != NodeKind::kMemberExpression ||
          !m->has_flag(Node::kComputed) || m->children[0] != r) {
        reads_clean = false;
        break;
      }
      const std::optional<double> k = numeric_value(m->children[1]);
      if (!k || *k != std::floor(*k) || *k < 0 || *k >= len) {
        reads_clean = false;
        break;
      }
      const Node* mp = m->parent;
      const bool written =
          mp != nullptr &&
          ((mp->kind == NodeKind::kAssignmentExpression &&
            mp->children[0] == m) ||
           mp->kind == NodeKind::kUpdateExpression ||
           (mp->kind == NodeKind::kForInStatement && mp->children[0] == m) ||
           (mp->kind == NodeKind::kUnaryExpression && mp->str == "delete"));
      if (written) {
        reads_clean = false;
        break;
      }
      reads.emplace_back(m, static_cast<long long>(*k));
    }
    if (!reads_clean || reads.empty()) continue;

    for (const auto& [member, k] : reads) {
      const Node* element = array->children[static_cast<std::size_t>(k)];
      js::replace_node(member, *js::clone(element, arena));
      ++changes;
    }
  }
  return changes;
}

// ---------------------------------------------------------------------------
// Apply un-packing.
// ---------------------------------------------------------------------------

int flatten_applies(js::Ast& ast) {
  int changes = 0;
  const std::vector<Node*> calls = js::collect(ast.root, [](Node* n) {
    return n->kind == NodeKind::kCallExpression && n->children.size() == 3 &&
           n->children[0]->kind == NodeKind::kMemberExpression &&
           !n->children[0]->has_flag(Node::kComputed) &&
           is_identifier(n->children[0]->children[1], "apply") &&
           n->children[2] != nullptr &&
           n->children[2]->kind == NodeKind::kArrayExpression;
  });
  for (Node* call : calls) {
    Node* target = call->children[0]->children[0];
    Node* this_arg = call->children[1];
    Node* args = call->children[2];
    bool holes = false;
    for (const Node* e : args->children) holes = holes || e == nullptr;
    if (holes) continue;

    bool ok = false;
    if (is_null_literal(this_arg) && target->kind == NodeKind::kIdentifier) {
      ok = true;  // f.apply(null, [...]) → f(...)
    } else if (this_arg->kind == NodeKind::kIdentifier &&
               target->kind == NodeKind::kMemberExpression &&
               target->children[0]->kind == NodeKind::kIdentifier &&
               target->children[0]->str == this_arg->str) {
      ok = true;  // o.m.apply(o, [...]) → o.m(...)
    }
    if (!ok) continue;

    std::vector<Node*> unpacked;
    unpacked.reserve(args->children.size() + 1);
    unpacked.push_back(target);
    for (Node* e : args->children) unpacked.push_back(e);
    call->children = unpacked;
    ++changes;
  }
  return changes;
}

class InlineIndirectionPass final : public Pass {
 public:
  std::string_view name() const noexcept override {
    return "inline-indirection";
  }

  int run(PassContext& ctx) const override {
    js::Ast& ast = ctx.ast();
    int changes = ctx.changed(unhoist_temps(ast, ctx.scopes()));
    changes += ctx.changed(inline_decoders(ast, ctx.scopes()));
    changes += ctx.changed(inline_literal_arrays(ast, ctx.scopes()));
    changes += ctx.changed(flatten_applies(ast));
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> make_inline_indirection_pass() {
  return std::make_unique<InlineIndirectionPass>();
}

}  // namespace jsrev::deob
