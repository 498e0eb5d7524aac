// canonicalize: reduce both plain and deobfuscated trees to one normal form.
//
// Unlike the other passes this one does not target a specific obfuscation —
// it is what makes `deob(obf(s))` and `deob(s)` converge to the *same* tree
// when the structural passes have done their work:
//
//   1. bare-block splicing — `{ a; b; }` standing alone in a statement list
//      becomes `a; b;` (blocks left behind by constant-branch folding).
//   2. function-declaration hoisting — declarations move to the front of
//      their body, in original order (they are hoisted at runtime anyway;
//      flatten_block emits them there, so plain code must match).
//   3. re-declaration demotion — a repeated `var x = e;` of an
//      already-declared name becomes the assignment `x = e;` (`var` is kept
//      only at a symbol's first declaration).
//   4. var re-forming — the inverse of flatten_block's decomposition of
//      `var a = 1;` into a hoisted bare `var a;` plus an `a = 1;`
//      assignment: a bare-declared name whose FIRST use is a top-of-list
//      simple assignment is re-formed into an initialized declaration at the
//      assignment's position (comma-sequences re-form into multi-declarator
//      declarations); bare names that stay bare are merged into one
//      declaration placed right after the hoisted functions.
//   5. identifier renaming — every declared symbol is renamed to v0, v1, ...
//      in scope-analysis creation order. Both sides of the convergence
//      property present structurally identical trees to this step, so both
//      get identical names regardless of what rename_variables did.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/scope.h"
#include "deob/deob.h"
#include "deob/internal.h"
#include "js/visitor.h"

namespace jsrev::deob {
namespace {

using analysis::ScopeInfo;
using analysis::Symbol;
using js::Node;
using js::NodeKind;

// ---------------------------------------------------------------------------
// 1. Bare-block splicing.
// ---------------------------------------------------------------------------

/// A block can be dissolved into its parent list unless it carries
/// block-scoped content (let/const; function declarations keep their
/// Annex-B block semantics untouched).
bool spliceable(const Node* s) {
  if (s->kind != NodeKind::kBlockStatement) return false;
  for (const Node* c : s->children) {
    if (c->kind == NodeKind::kFunctionDeclaration) return false;
    if (c->kind == NodeKind::kVariableDeclaration && c->str != "var") {
      return false;
    }
  }
  return true;
}

int splice_blocks(js::Ast& ast) {
  int changes = 0;
  // Inner-to-outer sweeps until stable: splicing an outer block re-parents
  // blocks that were inside it, so one pass over a pre-collected list can
  // leave work behind.
  for (bool dirty = true; dirty;) {
    dirty = false;
    for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
      bool has_block = false;
      for (const Node* s : *list) has_block = has_block || spliceable(s);
      if (!has_block) continue;
      std::vector<Node*> out;
      for (Node* s : *list) {
        if (spliceable(s)) {
          out.insert(out.end(), s->children.begin(), s->children.end());
          ++changes;
          dirty = true;
        } else {
          out.push_back(s);
        }
      }
      *list = out;
    }
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 2. Function-declaration hoisting.
// ---------------------------------------------------------------------------

int hoist_functions(js::Ast& ast) {
  int changes = 0;
  for (js::ChildList* list : detail::function_body_lists(ast.root)) {
    std::vector<Node*> fns;
    std::vector<Node*> rest;
    for (Node* s : *list) {
      (s->kind == NodeKind::kFunctionDeclaration ? fns : rest).push_back(s);
    }
    if (fns.empty()) continue;
    std::vector<Node*> out = fns;
    out.insert(out.end(), rest.begin(), rest.end());
    bool same = true;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i] != (*list)[i]) same = false;
    }
    if (same) continue;
    *list = out;
    ++changes;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 3. Var re-forming.
// ---------------------------------------------------------------------------

bool is_bare_declarator(const Node* d) {
  return d->children.size() < 2 || d->children[1] == nullptr;
}

bool is_declarator_id(const Node* n) {
  return n->parent != nullptr &&
         n->parent->kind == NodeKind::kVariableDeclarator &&
         n->parent->children[0] == n;
}

/// `var x = e;` where x is already declared earlier is the same statement as
/// `x = e;` — the repeated `var` rebinds nothing. Demoting every initialized
/// re-declaration gives duplicate declarations (common in generated code)
/// and flatten_block's hoisted decomposition one shared normal form: `var`
/// appears once, at the first declaration; later writes are assignments.
int demote_redeclarations(js::Ast& ast, const ScopeInfo& scopes) {
  js::AstArena& arena = ast.arena;

  // First declarator occurrence per symbol (references are preorder).
  std::unordered_map<const Symbol*, const Node*> first_decl;
  for (const auto& sym : scopes.symbols()) {
    for (const Node* r : sym->references) {
      if (is_declarator_id(r)) {
        first_decl.emplace(sym.get(), r);
        break;
      }
    }
  }

  int changes = 0;
  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    bool list_changed = false;
    std::vector<Node*> out;
    out.reserve(list->size());
    for (Node* s : *list) {
      // All declarators must be initialized re-declarations; mixed or bare
      // statements stay (a bare re-declaration is reform_vars' business).
      bool demote = s->kind == NodeKind::kVariableDeclaration &&
                    s->str == "var" && !s->children.empty();
      if (demote) {
        for (const Node* d : s->children) {
          if (is_bare_declarator(d)) {
            demote = false;
            break;
          }
          const Symbol* sym = scopes.symbol_for(d->children[0]);
          const auto it =
              sym == nullptr ? first_decl.end() : first_decl.find(sym);
          if (it == first_decl.end() || it->second == d->children[0]) {
            demote = false;
            break;
          }
        }
      }
      if (!demote) {
        out.push_back(s);
        continue;
      }
      std::vector<Node*> assigns;
      for (Node* d : s->children) {
        Node* a = arena.make(NodeKind::kAssignmentExpression);
        a->str = "=";
        a->children.push_back(d->children[0]);
        a->children.push_back(d->children[1]);
        assigns.push_back(a);
      }
      Node* stmt = arena.make(NodeKind::kExpressionStatement);
      if (assigns.size() == 1) {
        stmt->children.push_back(assigns[0]);
      } else {
        Node* seq = arena.make(NodeKind::kSequenceExpression);
        for (Node* a : assigns) seq->children.push_back(a);
        stmt->children.push_back(seq);
      }
      out.push_back(stmt);
      ++changes;
      list_changed = true;
    }
    if (list_changed) *list = out;
  }
  return changes;
}

int reform_vars(js::Ast& ast, const ScopeInfo& scopes) {
  js::AstArena& arena = ast.arena;
  int changes = 0;

  for (js::ChildList* list : detail::function_body_lists(ast.root)) {
    const std::vector<Node*> v(list->begin(), list->end());

    // Bare-declared symbols in first-appearance order.
    std::vector<const Symbol*> bare_order;
    std::unordered_set<const Symbol*> bare_set;
    bool duplicate_bare = false;
    for (const Node* s : v) {
      if (s->kind != NodeKind::kVariableDeclaration) continue;
      for (const Node* d : s->children) {
        if (!is_bare_declarator(d)) continue;
        const Symbol* sym = scopes.symbol_for(d->children[0]);
        if (sym == nullptr) continue;
        if (bare_set.insert(sym).second) {
          bare_order.push_back(sym);
        } else {
          duplicate_bare = true;  // `var x; var x;` — the rebuild dedupes
        }
      }
    }
    if (bare_order.empty()) continue;

    // First statement-level simple assignment to each bare symbol, in list
    // order — the position flatten_block's decomposition left the original
    // initializer at. Converting `x = e;` to `var x = e;` there is always
    // semantics-identical for a var-scoped name (the bare declaration
    // hoists regardless of where it is written), so earlier references —
    // typically inside nested functions declared above — do not disqualify.
    std::unordered_map<const Symbol*, const Node*> first_assign;
    const auto note_assignment = [&](const Node* a) {
      if (a->kind != NodeKind::kAssignmentExpression || a->str != "=") return;
      const Node* lhs = a->children[0];
      if (lhs->kind != NodeKind::kIdentifier) return;
      const Symbol* sym = scopes.symbol_for(lhs);
      if (sym == nullptr || bare_set.find(sym) == bare_set.end()) return;
      first_assign.emplace(sym, a);  // emplace keeps the first
    };
    for (const Node* s : v) {
      if (s->kind != NodeKind::kExpressionStatement) continue;
      const Node* e = s->children[0];
      if (e->kind == NodeKind::kAssignmentExpression) {
        note_assignment(e);
      } else if (e->kind == NodeKind::kSequenceExpression) {
        for (const Node* part : e->children) note_assignment(part);
      }
    }
    const auto qualifying_assignment =
        [&first_assign](const Symbol* sym) -> const Node* {
      const auto it = first_assign.find(sym);
      return it == first_assign.end() ? nullptr : it->second;
    };

    const auto make_declarator = [&arena](const Node* id, Node* init) {
      Node* d = arena.make(NodeKind::kVariableDeclarator);
      d->children.push_back(arena.identifier(id->str.view()));
      d->children.push_back(init);
      return d;
    };

    // Statement → replacement declaration, for qualifying assignments.
    std::unordered_map<const Node*, Node*> repl;
    std::unordered_set<const Symbol*> converted;
    for (Node* s : v) {
      if (s->kind != NodeKind::kExpressionStatement) continue;
      Node* e = s->children[0];
      if (e->kind == NodeKind::kAssignmentExpression) {
        Node* lhs = e->children[0];
        if (lhs->kind != NodeKind::kIdentifier || e->str != "=") continue;
        const Symbol* sym = scopes.symbol_for(lhs);
        if (sym == nullptr || bare_set.find(sym) == bare_set.end() ||
            converted.find(sym) != converted.end() ||
            qualifying_assignment(sym) != e) {
          continue;
        }
        Node* decl = arena.make(NodeKind::kVariableDeclaration);
        decl->str = "var";
        decl->children.push_back(make_declarator(lhs, e->children[1]));
        repl.emplace(s, decl);
        converted.insert(sym);
      } else if (e->kind == NodeKind::kSequenceExpression) {
        // `a = 1, b = 2;` — flatten_block's decomposition of a
        // multi-declarator statement. All elements must qualify.
        std::vector<std::pair<Node*, Node*>> parts;  // (lhs, rhs)
        std::unordered_set<const Symbol*> seen;
        bool ok = !e->children.empty();
        for (Node* part : e->children) {
          if (part->kind != NodeKind::kAssignmentExpression ||
              part->str != "=" ||
              part->children[0]->kind != NodeKind::kIdentifier) {
            ok = false;
            break;
          }
          const Symbol* sym = scopes.symbol_for(part->children[0]);
          if (sym == nullptr || bare_set.find(sym) == bare_set.end() ||
              converted.find(sym) != converted.end() ||
              !seen.insert(sym).second ||
              qualifying_assignment(sym) != part) {
            ok = false;
            break;
          }
          parts.emplace_back(part->children[0], part->children[1]);
        }
        if (!ok) continue;
        Node* decl = arena.make(NodeKind::kVariableDeclaration);
        decl->str = "var";
        for (const auto& [lhs, rhs] : parts) {
          decl->children.push_back(make_declarator(lhs, rhs));
          converted.insert(scopes.symbol_for(lhs));
        }
        repl.emplace(s, decl);
      }
    }

    std::vector<const Symbol*> remaining;
    for (const Symbol* sym : bare_order) {
      if (converted.find(sym) == converted.end()) remaining.push_back(sym);
    }

    // Fixpoint guard: nothing to convert and the bare declarators already
    // sit as one merged declaration in canonical position/order.
    if (repl.empty() && !duplicate_bare) {
      std::size_t fn_end = 0;
      while (fn_end < v.size() &&
             v[fn_end]->kind == NodeKind::kFunctionDeclaration) {
        ++fn_end;
      }
      bool canonical = fn_end < v.size() &&
                       v[fn_end]->kind == NodeKind::kVariableDeclaration &&
                       v[fn_end]->children.size() == remaining.size();
      if (canonical) {
        for (std::size_t i = 0; i < remaining.size(); ++i) {
          const Node* d = v[fn_end]->children[i];
          if (!is_bare_declarator(d) ||
              scopes.symbol_for(d->children[0]) != remaining[i]) {
            canonical = false;
            break;
          }
        }
      }
      if (canonical) {
        // ... and no OTHER declaration still holds a bare declarator.
        for (const Node* s : v) {
          if (s == v[fn_end] || s->kind != NodeKind::kVariableDeclaration) {
            continue;
          }
          for (const Node* d : s->children) {
            canonical = canonical && !is_bare_declarator(d);
          }
        }
      }
      if (canonical) continue;
    }

    // Rebuild: swap in conversions, strip every bare declarator, then place
    // one merged bare declaration after the leading functions.
    std::vector<Node*> out;
    for (Node* s : v) {
      const auto rit = repl.find(s);
      if (rit != repl.end()) {
        out.push_back(rit->second);
        continue;
      }
      if (s->kind == NodeKind::kVariableDeclaration) {
        std::vector<Node*> kept;
        for (Node* d : s->children) {
          if (!is_bare_declarator(d)) kept.push_back(d);
        }
        if (kept.empty()) continue;  // declaration fully re-formed/merged
        if (kept.size() != s->children.size()) s->children = kept;
      }
      out.push_back(s);
    }
    if (!remaining.empty()) {
      Node* merged = arena.make(NodeKind::kVariableDeclaration);
      merged->str = "var";
      for (const Symbol* sym : remaining) {
        Node* d = arena.make(NodeKind::kVariableDeclarator);
        d->children.push_back(arena.identifier(sym->name));
        d->children.push_back(nullptr);
        merged->children.push_back(d);
      }
      std::size_t pos = 0;
      while (pos < out.size() &&
             out[pos]->kind == NodeKind::kFunctionDeclaration) {
        ++pos;
      }
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), merged);
    }
    *list = out;
    ++changes;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 4. Deterministic renaming.
// ---------------------------------------------------------------------------

int rename_identifiers(js::Ast& ast, const ScopeInfo& scopes) {

  std::unordered_set<std::string_view> taken;  // external names stay put
  for (const auto& sym : scopes.symbols()) {
    if (sym->is_global_implicit) taken.insert(sym->name);
  }

  std::unordered_map<const Symbol*, std::string> new_names;
  int changes = 0;
  int k = 0;
  for (const auto& sym : scopes.symbols()) {
    if (sym->is_global_implicit) continue;
    std::string name;
    do {
      name = "v" + std::to_string(k++);
    } while (taken.find(name) != taken.end());
    if (name != sym->name) ++changes;
    new_names.emplace(sym.get(), std::move(name));
  }
  if (changes == 0) return 0;

  std::unordered_map<const Node*, const Symbol*> by_node;
  for (const auto& sym : scopes.symbols()) {
    for (const Node* ref : sym->references) by_node.emplace(ref, sym.get());
  }
  js::walk(ast.root, [&by_node, &new_names](Node* n) {
    if (n->kind == NodeKind::kIdentifier) {
      const auto it = by_node.find(n);
      if (it != by_node.end()) {
        const auto name_it = new_names.find(it->second);
        if (name_it != new_names.end()) n->str = name_it->second;
      }
    }
    return true;
  });

  // Function names live in `str`, not Identifier nodes; scope analysis
  // records each binding node on its symbol, so every function takes its
  // own symbol's name (name matching would collapse two same-named
  // functions in different scopes onto one name and orphan their calls).
  for (const auto& sym : scopes.symbols()) {
    const auto name_it = new_names.find(sym.get());
    if (name_it == new_names.end()) continue;
    for (const Node* fn : sym->fn_nodes) {
      const_cast<Node*>(fn)->str = name_it->second;
    }
  }
  return changes;
}

class CanonicalizePass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "canonicalize"; }

  int run(PassContext& ctx) const override {
    js::Ast& ast = ctx.ast();
    int changes = ctx.changed(splice_blocks(ast));
    changes += ctx.changed(hoist_functions(ast));
    changes += ctx.changed(demote_redeclarations(ast, ctx.scopes()));
    changes += ctx.changed(reform_vars(ast, ctx.scopes()));
    changes += ctx.changed(rename_identifiers(ast, ctx.scopes()));
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> make_canonicalize_pass() {
  return std::make_unique<CanonicalizePass>();
}

}  // namespace jsrev::deob
