#include "analysis/pdg.h"

#include <algorithm>

#include "js/visitor.h"

namespace jsrev::analysis {
namespace {

using js::Node;
using js::NodeKind;

bool is_statement_kind(NodeKind k) {
  switch (k) {
    case NodeKind::kExpressionStatement:
    case NodeKind::kIfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kSwitchStatement:
    case NodeKind::kReturnStatement:
    case NodeKind::kThrowStatement:
    case NodeKind::kTryStatement:
    case NodeKind::kVariableDeclaration:
    case NodeKind::kFunctionDeclaration:
    case NodeKind::kBreakStatement:
    case NodeKind::kContinueStatement:
    case NodeKind::kWithStatement:
    case NodeKind::kLabeledStatement:
    case NodeKind::kDebuggerStatement:
      return true;
    default:
      return false;
  }
}

bool is_branching(NodeKind k) {
  switch (k) {
    case NodeKind::kIfStatement:
    case NodeKind::kWhileStatement:
    case NodeKind::kDoWhileStatement:
    case NodeKind::kForStatement:
    case NodeKind::kForInStatement:
    case NodeKind::kSwitchStatement:
    case NodeKind::kTryStatement:
      return true;
    default:
      return false;
  }
}

/// Nearest enclosing statement node of `n` (may be n itself).
const Node* enclosing_statement(const Node* n) {
  for (const Node* cur = n; cur != nullptr; cur = cur->parent) {
    if (is_statement_kind(cur->kind)) return cur;
  }
  return nullptr;
}

}  // namespace

std::size_t Pdg::data_edge_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.data_succs.size();
  return n;
}

Pdg build_pdg(const js::Node* program, [[maybe_unused]] const ScopeInfo& scopes,
              const DataFlowInfo& dataflow) {
  Pdg pdg;

  // Collect statement nodes in preorder.
  js::walk(program, [&pdg](const Node* n) {
    if (is_statement_kind(n->kind)) {
      PdgNode pn;
      pn.stmt = n;
      pdg.index_.emplace(n, pdg.nodes_.size());
      pdg.nodes_.push_back(pn);
    }
    return true;
  });

  // Control dependence: every statement depends on the nearest enclosing
  // branching statement (transitively captured by chaining).
  for (std::size_t i = 0; i < pdg.nodes_.size(); ++i) {
    const Node* stmt = pdg.nodes_[i].stmt;
    for (const Node* p = stmt->parent; p != nullptr; p = p->parent) {
      if (is_statement_kind(p->kind) && is_branching(p->kind)) {
        const std::size_t src = pdg.node_for(p);
        if (src != Pdg::npos) pdg.nodes_[src].control_succs.push_back(i);
        break;
      }
      // Stop at function boundaries: dependence is intraprocedural.
      if (p->is_function()) break;
    }
  }

  // Data dependence: project identifier-level def-use edges to statements.
  for (const DataFlowEdge& e : dataflow.edges()) {
    const Node* s1 = enclosing_statement(e.def);
    const Node* s2 = enclosing_statement(e.use);
    if (s1 == nullptr || s2 == nullptr || s1 == s2) continue;
    const std::size_t a = pdg.node_for(s1);
    const std::size_t b = pdg.node_for(s2);
    if (a == Pdg::npos || b == Pdg::npos) continue;
    // Deduplicate repeated edges between the same statements.
    auto& succs = pdg.nodes_[a].data_succs;
    if (std::find(succs.begin(), succs.end(), b) == succs.end()) {
      succs.push_back(b);
    }
  }

  return pdg;
}

}  // namespace jsrev::analysis
