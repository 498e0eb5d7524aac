// Program dependence graph: statement-level control + data dependencies.
//
// The JSTAP baseline extracts n-gram features from walks over the PDG. Our
// PDG has one node per statement-level AST node; edges are:
//  * control dependence — a statement nested under a branching/looping
//    construct depends on that construct's predicate statement;
//  * data dependence — statement S2 reads a variable that statement S1
//    wrote (projected up from the identifier-level def-use edges).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/scope.h"
#include "js/ast.h"

namespace jsrev::analysis {

struct PdgNode {
  const js::Node* stmt = nullptr;
  std::vector<std::size_t> control_succs;
  std::vector<std::size_t> data_succs;
};

class Pdg {
 public:
  const std::vector<PdgNode>& nodes() const { return nodes_; }

  std::size_t node_for(const js::Node* stmt) const {
    const auto it = index_.find(stmt);
    return it == index_.end() ? npos : it->second;
  }

  std::size_t data_edge_count() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  friend Pdg build_pdg(const js::Node* program, const ScopeInfo& scopes,
                       const DataFlowInfo& dataflow);
  std::vector<PdgNode> nodes_;
  std::unordered_map<const js::Node*, std::size_t> index_;
};

/// Builds the program-wide PDG for a finalized AST.
Pdg build_pdg(const js::Node* program, const ScopeInfo& scopes,
              const DataFlowInfo& dataflow);

}  // namespace jsrev::analysis
