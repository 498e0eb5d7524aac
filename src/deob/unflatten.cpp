// unflatten: control-flow-flattening unrolling.
//
// Matches the dispatcher shape flatten_block emits —
//
//   var ORD = "t3|t1|t2".split("|"), CTR = 0;
//   while (true) {
//     switch (ORD[CTR++]) {
//       case "t1": <stmt>; continue;
//       ...
//     }
//     break;
//   }
//
// — and re-serializes the case bodies in order-string order, replacing both
// statements. The match is deliberately strict: the order string must name
// every case exactly once, ORD/CTR may appear nowhere else in the program
// (so unrolling cannot change any other binding), and no case body may
// contain a break/continue that would re-bind once the surrounding
// switch+loop disappear. By the time this pass sees the tree, fold-constants
// has already reassembled an order string that was itself chunk-encoded, and
// inline-indirection has restored string-array-extracted case tags.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deob/deob.h"
#include "deob/internal.h"
#include "js/visitor.h"
#include "util/string_util.h"

namespace jsrev::deob {
namespace {

using detail::has_free_break_or_continue;
using detail::is_identifier;
using detail::is_number_literal;
using detail::is_string_literal;
using js::Node;
using js::NodeKind;

struct Dispatcher {
  std::string_view ord_name;
  std::string_view ctr_name;
  std::vector<std::string> order;            // tags in execution order
  const Node* switch_node = nullptr;
};

/// Matches `var ORD = "..".split("|"), CTR = 0;` and fills names + order.
bool match_decl(const Node* stmt, Dispatcher& out) {
  if (stmt->kind != NodeKind::kVariableDeclaration || stmt->str != "var" ||
      stmt->children.size() != 2) {
    return false;
  }
  const Node* d_ord = stmt->children[0];
  const Node* d_ctr = stmt->children[1];
  if (d_ord->children.size() < 2 || d_ord->children[1] == nullptr ||
      d_ctr->children.size() < 2 || !is_number_literal(d_ctr->children[1]) ||
      d_ctr->children[1]->num != 0) {
    return false;
  }
  const Node* call = d_ord->children[1];
  if (call->kind != NodeKind::kCallExpression || call->children.size() != 2 ||
      !is_string_literal(call->children[1]) ||
      call->children[1]->str.size() != 1) {
    return false;
  }
  const Node* callee = call->children[0];
  if (callee->kind != NodeKind::kMemberExpression ||
      callee->has_flag(Node::kComputed) ||
      !is_string_literal(callee->children[0]) ||
      !is_identifier(callee->children[1], "split")) {
    return false;
  }
  out.ord_name = d_ord->children[0]->str.view();
  out.ctr_name = d_ctr->children[0]->str.view();
  out.order = split(std::string(callee->children[0]->str),
                    call->children[1]->str.view()[0]);
  return !out.order.empty();
}

/// Matches `while (true) { switch (ORD[CTR++]) {...} break; }`.
bool match_loop(const Node* stmt, Dispatcher& out) {
  if (stmt->kind != NodeKind::kWhileStatement) return false;
  const Node* test = stmt->children[0];
  const Node* body = stmt->children[1];
  if (test->kind != NodeKind::kLiteral ||
      test->lit != js::LiteralType::kBoolean || !test->bval) {
    return false;
  }
  if (body->kind != NodeKind::kBlockStatement || body->children.size() != 2) {
    return false;
  }
  const Node* sw = body->children[0];
  const Node* brk = body->children[1];
  if (sw->kind != NodeKind::kSwitchStatement ||
      brk->kind != NodeKind::kBreakStatement || !brk->str.empty()) {
    return false;
  }
  const Node* disc = sw->children[0];
  if (disc->kind != NodeKind::kMemberExpression ||
      !disc->has_flag(Node::kComputed) ||
      !is_identifier(disc->children[0], out.ord_name)) {
    return false;
  }
  const Node* update = disc->children[1];
  if (update->kind != NodeKind::kUpdateExpression || update->str != "++" ||
      update->has_flag(Node::kPrefix) ||
      !is_identifier(update->children[0], out.ctr_name)) {
    return false;
  }
  out.switch_node = sw;
  return true;
}

/// Validates the cases against the order string and collects each tag's body
/// (the consequent minus its trailing `continue`). Returns false when the
/// dispatcher cannot be unrolled safely.
bool collect_bodies(
    const Dispatcher& d,
    std::unordered_map<std::string_view, std::vector<Node*>>& bodies) {
  std::unordered_set<std::string_view> order_tags;
  for (const std::string& t : d.order) {
    if (!order_tags.insert(t).second) return false;  // tag executed twice
  }
  const Node* sw = d.switch_node;
  for (std::size_t i = 1; i < sw->children.size(); ++i) {
    Node* c = sw->children[i];
    if (!is_string_literal(c->children[0])) return false;  // incl. default
    const std::string_view tag = c->children[0]->str.view();
    if (order_tags.find(tag) == order_tags.end()) return false;
    if (bodies.find(tag) != bodies.end()) return false;  // duplicate case
    if (c->children.size() < 2) return false;
    Node* last = c->children[c->children.size() - 1];
    if (last->kind != NodeKind::kContinueStatement || !last->str.empty()) {
      return false;  // a case that falls through or exits oddly
    }
    std::vector<Node*> body;
    for (std::size_t j = 1; j + 1 < c->children.size(); ++j) {
      Node* s = c->children[j];
      // Once hoisted out of the switch+loop, a break/continue that bound to
      // the dispatcher (or escaped past it) would re-bind. Keep flattened.
      if (has_free_break_or_continue(s)) return false;
      body.push_back(s);
    }
    bodies.emplace(tag, std::move(body));
  }
  return bodies.size() == order_tags.size();  // every tag has a case
}

class UnflattenPass final : public Pass {
 public:
  std::string_view name() const noexcept override { return "unflatten"; }

  int run(PassContext& ctx) const override {
    js::Ast& ast = ctx.ast();
    int changes = 0;
    for (js::ChildList* list : detail::function_body_lists(ast.root)) {
      std::vector<Node*> v(list->begin(), list->end());
      bool list_changed = false;
      for (std::size_t i = 0; i + 1 < v.size();) {
        Dispatcher d;
        if (!match_decl(v[i], d) || !match_loop(v[i + 1], d) ||
            !names_are_private(ast.root, d)) {
          ++i;
          continue;
        }
        std::unordered_map<std::string_view, std::vector<Node*>> bodies;
        if (!collect_bodies(d, bodies)) {
          ++i;
          continue;
        }
        std::vector<Node*> unrolled;
        for (const std::string& tag : d.order) {
          const std::vector<Node*>& body = bodies[tag];
          unrolled.insert(unrolled.end(), body.begin(), body.end());
        }
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i),
                v.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        v.insert(v.begin() + static_cast<std::ptrdiff_t>(i),
                 unrolled.begin(), unrolled.end());
        list_changed = true;
        ++changes;
        // Do not advance: a nested dispatcher hoisted into position i (or a
        // stacked one right behind it) is matched on the next trip.
      }
      if (list_changed) *list = v;
    }
    return ctx.changed(changes);
  }

 private:
  /// ORD and CTR must each occur exactly twice as identifiers in the whole
  /// tree (declarator + dispatcher use) — any third occurrence means the
  /// names leak outside the dispatcher and unrolling could change bindings.
  static bool names_are_private(Node* root, const Dispatcher& d) {
    int ord = 0;
    int ctr = 0;
    js::walk(root, [&d, &ord, &ctr](const Node* n) {
      if (n->kind == NodeKind::kIdentifier) {
        if (n->str == d.ord_name) ++ord;
        if (n->str == d.ctr_name) ++ctr;
      }
      return true;
    });
    return ord == 2 && ctr == 2;
  }
};

}  // namespace

std::unique_ptr<Pass> make_unflatten_pass() {
  return std::make_unique<UnflattenPass>();
}

}  // namespace jsrev::deob
