// prune-dead: dead-code and opaque-predicate elimination.
//
// Four sub-steps per run, each reporting its changes to the run's
// PassContext (which refinalizes the tree and drops its scope analysis):
//
//   1. constant branches — `if (<const>)` / `while (<const-false>)` where the
//      test is a literal or a single-write binding initialized to a literal
//      (fold-constants has already collapsed literal comparisons, so opaque
//      predicates arrive here as plain `true`/`false`). The dead branch is
//      dropped; `var` declarators buried in it are re-hoisted as bare
//      declarations when the name is referenced outside (dropping them would
//      silently reclassify those references as implicit globals).
//   2. unreachable statements — a reachability sweep over the CFGs removes
//      statements control can never reach (after return/throw/break).
//      Hoisted forms survive: function declarations always, bare var
//      declarations as-is, initialized ones demoted to their bare guard.
//   3. unused declarations — function declarations whose name is never
//      referenced anywhere, and var declarators never read outside their own
//      declaration with side-effect-free initializers (this is what finally
//      deletes a consumed string-array table and its getter, fog data/
//      dispatch tables, and inject_dead_code's junk vars).
//   4. list cleanup — empty statements and emptied declarations.
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/scope.h"
#include "deob/deob.h"
#include "deob/internal.h"
#include "js/visitor.h"

namespace jsrev::deob {
namespace {

using analysis::ScopeInfo;
using analysis::Symbol;
using detail::is_pure_expression;
using detail::literal_truthiness;
using js::Node;
using js::NodeKind;

bool is_declarator_id(const Node* ref) {
  return ref->parent != nullptr &&
         ref->parent->kind == NodeKind::kVariableDeclarator &&
         ref->parent->children[0] == ref;
}

bool is_bare_var_decl(const Node* s) {
  if (s->kind != NodeKind::kVariableDeclaration) return false;
  for (const Node* d : s->children) {
    if (d->children.size() >= 2 && d->children[1] != nullptr) return false;
  }
  return true;
}

/// Var declarator ids declared inside `n`, excluding nested functions (their
/// vars hoist to their own scope, not ours).
void collect_hoisted_ids(const Node* n, std::vector<const Node*>& ids) {
  js::walk(n, [&ids](const Node* c) {
    if (c->is_function()) return false;
    if (c->kind == NodeKind::kVariableDeclarator) ids.push_back(c->children[0]);
    return true;
  });
}

/// Builds the bare `var a, b;` that must survive when `removed` is deleted:
/// one declarator per name that is still referenced outside the removed
/// subtree and declared nowhere else. Returns nullptr when nothing needs
/// hoisting.
Node* hoist_guard(const Node* removed, const ScopeInfo& scopes,
                  js::AstArena& arena) {
  std::vector<const Node*> ids;
  collect_hoisted_ids(removed, ids);
  std::vector<std::string_view> keep;
  std::unordered_set<std::string_view> seen;
  for (const Node* id : ids) {
    const Symbol* sym = scopes.symbol_for(id);
    if (sym == nullptr) continue;
    bool outside_ref = false;
    bool outside_decl = false;
    for (const Node* r : sym->references) {
      if (detail::is_inside(r, removed)) continue;
      outside_ref = true;
      if (is_declarator_id(r)) outside_decl = true;
    }
    // No outside use: the binding dies with the subtree. Declared outside
    // too: that declaration keeps the name alive.
    if (!outside_ref || outside_decl) continue;
    if (seen.insert(sym->name).second) keep.push_back(id->str.view());
  }
  if (keep.empty()) return nullptr;
  Node* decl = arena.make(NodeKind::kVariableDeclaration);
  decl->str = "var";
  for (const std::string_view name : keep) {
    Node* d = arena.make(NodeKind::kVariableDeclarator);
    d->children.push_back(arena.identifier(name));
    d->children.push_back(nullptr);
    decl->children.push_back(d);
  }
  return decl;
}

// ---------------------------------------------------------------------------
// 1. Constant branches.
// ---------------------------------------------------------------------------

int fold_const_branches(js::Ast& ast, const ScopeInfo& scopes) {
  js::AstArena& arena = ast.arena;

  // Dataflow-const bindings: written exactly once, by their declarator, with
  // a literal initializer. The declarator id is kept so uses that precede
  // the declaration (hoisted var read before init: still `undefined`) are
  // not treated as const.
  std::unordered_map<const Symbol*, std::pair<bool, decltype(Node::id)>> env;
  for (const auto& sym : scopes.symbols()) {
    if (sym->is_global_implicit || sym->is_parameter || sym->is_function) {
      continue;
    }
    if (sym->writes.size() != 1 || !is_declarator_id(sym->writes[0])) continue;
    const Node* decl = sym->writes[0]->parent;
    const Node* init = decl->children.size() >= 2
                           ? static_cast<Node*>(decl->children[1])
                           : nullptr;
    if (const std::optional<bool> t = literal_truthiness(init)) {
      env.emplace(sym.get(), std::make_pair(*t, sym->writes[0]->id));
    }
  }

  const auto static_truth = [&scopes, &env](const Node* test)
      -> std::optional<bool> {
    if (const std::optional<bool> t = literal_truthiness(test)) return t;
    if (test->kind == NodeKind::kIdentifier) {
      const auto it = env.find(scopes.symbol_for(test));
      if (it != env.end() && test->id > it->second.second) {
        return it->second.first;
      }
    }
    return std::nullopt;
  };

  int changes = 0;
  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    std::vector<Node*> out;
    bool list_changed = false;
    for (Node* s : *list) {
      Node* taken = nullptr;
      Node* dropped = nullptr;
      bool fold = false;
      if (s->kind == NodeKind::kIfStatement) {
        if (const std::optional<bool> t = static_truth(s->children[0])) {
          Node* alt = s->children.size() > 2
                          ? static_cast<Node*>(s->children[2])
                          : nullptr;
          taken = *t ? s->children[1] : alt;
          dropped = *t ? alt : s->children[1];
          fold = true;
        }
      } else if (s->kind == NodeKind::kWhileStatement) {
        const std::optional<bool> t = static_truth(s->children[0]);
        if (t && !*t) {  // while(true) is simply an infinite loop; keep it
          dropped = s->children[1];
          fold = true;
        }
      }
      if (!fold) {
        out.push_back(s);
        continue;
      }
      if (taken != nullptr) out.push_back(taken);  // block-splice comes later
      if (dropped != nullptr) {
        if (Node* guard = hoist_guard(dropped, scopes, arena)) {
          out.push_back(guard);
        }
      }
      list_changed = true;
      ++changes;
    }
    if (list_changed) *list = out;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 2. CFG-unreachable statements.
// ---------------------------------------------------------------------------

int remove_unreachable(js::Ast& ast, const ScopeInfo& scopes) {
  const std::vector<analysis::Cfg> cfgs = analysis::build_all_cfgs(ast.root);
  std::unordered_set<const Node*> reachable;
  for (const analysis::Cfg& cfg : cfgs) {
    std::vector<bool> seen(cfg.nodes().size(), false);
    std::deque<std::size_t> queue = {cfg.entry()};
    seen[cfg.entry()] = true;
    while (!queue.empty()) {
      const std::size_t i = queue.front();
      queue.pop_front();
      if (cfg.nodes()[i].stmt != nullptr) reachable.insert(cfg.nodes()[i].stmt);
      for (const std::size_t s : cfg.nodes()[i].succs) {
        if (!seen[s]) {
          seen[s] = true;
          queue.push_back(s);
        }
      }
    }
  }

  int changes = 0;
  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    std::vector<Node*> out;
    bool list_changed = false;
    for (Node* s : *list) {
      // Blocks and labels never carry their own CFG node (the builder
      // recurses through them), and hoisted forms are live regardless of
      // reachability: function declarations exist before execution, and a
      // bare `var` is exactly its own hoisted residue (keeping it as-is is
      // what lets the pass reach a fixpoint instead of re-guarding forever).
      const bool exempt = s->kind == NodeKind::kBlockStatement ||
                          s->kind == NodeKind::kLabeledStatement ||
                          s->kind == NodeKind::kFunctionDeclaration ||
                          is_bare_var_decl(s);
      if (exempt || reachable.find(s) != reachable.end()) {
        out.push_back(s);
        continue;
      }
      if (Node* guard = hoist_guard(s, scopes, ast.arena)) {
        out.push_back(guard);
      }
      list_changed = true;
      ++changes;
    }
    if (list_changed) *list = out;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 3. Unused declarations.
// ---------------------------------------------------------------------------

int remove_unused_decls(js::Ast& ast, const ScopeInfo& scopes) {

  // A function declaration is removable only when NO symbol of that name is
  // referenced anywhere — shadowing-blind by design, which is safe (a
  // same-named var or parameter keeps every declaration of the name alive).
  std::unordered_map<std::string_view, std::pair<bool, bool>> by_name;
  for (const auto& sym : scopes.symbols()) {
    auto& [any_function, any_reference] = by_name[sym->name];
    any_function = any_function || sym->is_function;
    any_reference = any_reference || !sym->references.empty();
  }

  int changes = 0;
  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    std::vector<Node*> out;
    bool list_changed = false;
    for (Node* s : *list) {
      if (s->kind == NodeKind::kFunctionDeclaration) {
        const auto it = by_name.find(s->str.view());
        if (it != by_name.end() && it->second.first && !it->second.second) {
          list_changed = true;
          ++changes;
          continue;  // drop the declaration
        }
      } else if (s->kind == NodeKind::kVariableDeclaration) {
        std::vector<Node*> kept;
        for (Node* d : s->children) {
          const Symbol* sym = scopes.symbol_for(d->children[0]);
          bool unused = sym != nullptr && !sym->is_parameter &&
                        !sym->is_global_implicit;
          if (unused) {
            for (const Node* r : sym->references) {
              if (!is_declarator_id(r)) {
                unused = false;
                break;
              }
            }
          }
          Node* init = d->children.size() >= 2
                           ? static_cast<Node*>(d->children[1])
                           : nullptr;
          if (unused && (init == nullptr || is_pure_expression(init))) {
            ++changes;
            continue;  // drop the declarator
          }
          kept.push_back(d);
        }
        if (kept.size() != s->children.size()) {
          s->children = kept;
          list_changed = true;  // possibly now empty; cleanup removes it
        }
      }
      out.push_back(s);
    }
    if (list_changed) *list = out;
  }
  return changes;
}

// ---------------------------------------------------------------------------
// 4. List cleanup.
// ---------------------------------------------------------------------------

int cleanup_lists(js::Ast& ast) {
  int changes = 0;
  for (js::ChildList* list : detail::all_statement_lists(ast.root)) {
    std::vector<Node*> out;
    bool list_changed = false;
    for (Node* s : *list) {
      const bool drop =
          s->kind == NodeKind::kEmptyStatement ||
          (s->kind == NodeKind::kVariableDeclaration && s->children.empty());
      if (drop) {
        list_changed = true;
        ++changes;
      } else {
        out.push_back(s);
      }
    }
    if (list_changed) *list = out;
  }
  return changes;
}

class PruneDeadPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "prune-dead"; }

  int run(PassContext& ctx) const override {
    js::Ast& ast = ctx.ast();
    int changes = ctx.changed(fold_const_branches(ast, ctx.scopes()));
    changes += ctx.changed(remove_unreachable(ast, ctx.scopes()));
    changes += ctx.changed(remove_unused_decls(ast, ctx.scopes()));
    changes += ctx.changed(cleanup_lists(ast));
    return changes;
  }
};

}  // namespace

std::unique_ptr<Pass> make_prune_dead_pass() {
  return std::make_unique<PruneDeadPass>();
}

}  // namespace jsrev::deob
