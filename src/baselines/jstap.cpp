#include "baselines/jstap.h"

#include <algorithm>

#include "analysis/pdg.h"
#include "js/visitor.h"

namespace jsrev::detect {

Jstap::Jstap(JstapConfig cfg) : cfg_(cfg), vocab_(cfg.n, cfg.dims) {
  ml::ForestConfig fc;
  fc.seed = cfg.seed;
  forest_ = ml::RandomForest(fc);
}

std::vector<std::vector<std::string>> Jstap::pdg_walks(
    const analysis::ScriptAnalysis& analysis) {
  const analysis::Pdg& pdg = analysis.pdg();

  // One GLOBAL traversal of the PDG in statement preorder: each statement
  // contributes its AST subtree kinds (at AST-node granularity, so
  // expression-level transformations perturb the features) interleaved with
  // control-/data-successor annotations. N-grams are taken across statement
  // boundaries, so inserted statements (dead code, temp hoists, dispatch
  // machinery) shift every crossing n-gram — the "drowning" effect the
  // paper observes on the real JSTAP.
  // The full statement subtree enters the walk (JSTAP's PDG is the complete
  // AST augmented with flow edges, so its n-grams see every node); a loose
  // cap only guards against pathological inputs.
  constexpr std::size_t kSubtreeCap = 4000;
  std::vector<std::string> walk;
  const auto& nodes = pdg.nodes();
  for (const auto& pn : nodes) {
    std::size_t emitted = 0;
    js::walk(pn.stmt, [&walk, &emitted](const js::Node* n) {
      if (emitted >= kSubtreeCap) return false;
      walk.emplace_back(js::node_kind_name(n->kind));
      ++emitted;
      return true;
    });
    // Edge annotations carry the successor's expression-level head (first
    // few preorder kinds), not just its statement kind — real JSTAP
    // n-grams cross into expression nodes, which is why expression-level
    // transformations perturb its features.
    auto head_of = [](const js::Node* stmt) {
      std::string head;
      int emitted2 = 0;
      js::walk(stmt, [&head, &emitted2](const js::Node* n) {
        if (emitted2 >= 3) return false;
        if (emitted2 > 0) head += '/';
        head += js::node_kind_name(n->kind);
        ++emitted2;
        return true;
      });
      return head;
    };
    for (const std::size_t c : pn.control_succs) {
      walk.push_back("C:" + head_of(nodes[c].stmt));
    }
    for (const std::size_t d : pn.data_succs) {
      walk.push_back("D:" + head_of(nodes[d].stmt));
    }
  }
  std::vector<std::vector<std::string>> walks;
  if (!walk.empty()) walks.push_back(std::move(walk));
  return walks;
}

std::vector<double> Jstap::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  // Binary n-gram presence over the training vocabulary: obfuscation that
  // rewrites the PDG wholesale zeroes most of the vector.
  std::vector<double> f(vocab_.dims(), 0.0);
  for (const auto& walk : pdg_walks(analysis)) {
    vocab_.accumulate(walk, f);
  }
  for (double& v : f) v = v > 0 ? 1.0 : 0.0;
  return f;
}

void Jstap::train(const analysis::AnalyzedCorpus& corpus) {
  // Pass 1: build the n-gram vocabulary over all training PDG walks.
  std::vector<std::vector<std::vector<std::string>>> all_walks(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const analysis::ScriptAnalysis& analysis = *corpus.scripts[i];
    if (!analysis.parse_failed()) {
      all_walks[i] = pdg_walks(analysis);
    }
    // unparseable sample contributes no n-grams
    for (const auto& walk : all_walks[i]) vocab_.count(walk);
  }
  vocab_.freeze();

  // Pass 2: featurize (binary presence) and fit.
  ml::Matrix x(corpus.size(), vocab_.dims());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::vector<double> f(vocab_.dims(), 0.0);
    for (const auto& walk : all_walks[i]) vocab_.accumulate(walk, f);
    for (double& v : f) v = v > 0 ? 1.0 : 0.0;
    std::copy(f.begin(), f.end(), x.row(i));
  }
  forest_.fit(x, corpus.labels);
}

int Jstap::classify(const analysis::ScriptAnalysis& analysis) const {
  return record_verdict(analysis.classify_or_malicious(
      [&] { return forest_.predict(featurize(analysis).data()); }));
}

}  // namespace jsrev::detect
