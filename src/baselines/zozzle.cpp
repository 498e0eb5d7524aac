#include "baselines/zozzle.h"

#include <algorithm>

#include "js/printer.h"
#include "js/visitor.h"
#include "util/hash.h"

namespace jsrev::detect {
namespace {

using js::Node;
using js::NodeKind;

const char* context_of(const Node* n) {
  for (const Node* p = n->parent; p != nullptr; p = p->parent) {
    switch (p->kind) {
      case NodeKind::kFunctionDeclaration:
      case NodeKind::kFunctionExpression:
      case NodeKind::kArrowFunctionExpression:
        return "function";
      case NodeKind::kIfStatement:
      case NodeKind::kConditionalExpression:
      case NodeKind::kSwitchStatement:
        return "if";
      case NodeKind::kForStatement:
      case NodeKind::kForInStatement:
      case NodeKind::kWhileStatement:
      case NodeKind::kDoWhileStatement:
        return "loop";
      case NodeKind::kTryStatement:
        return "try";
      default:
        break;
    }
  }
  return "script";
}

bool interesting(const Node* n) {
  switch (n->kind) {
    case NodeKind::kCallExpression:
    case NodeKind::kNewExpression:
    case NodeKind::kMemberExpression:
    case NodeKind::kAssignmentExpression:
    case NodeKind::kVariableDeclaration:
    case NodeKind::kBinaryExpression:
      return true;
    default:
      return false;
  }
}

}  // namespace

Zozzle::Zozzle(ZozzleConfig cfg) : cfg_(cfg) {}

std::vector<std::string> Zozzle::context_features(
    const analysis::ScriptAnalysis& analysis) {
  std::vector<std::string> feats;
  js::walk(analysis.root(), [&feats](const Node* n) {
    if (interesting(n)) {
      std::string text = js::print(n, js::PrintStyle::kMinified);
      if (text.size() > 64) text.resize(64);  // cap pathological nodes
      feats.push_back(std::string(context_of(n)) + ":" + text);
    }
    return true;
  });
  return feats;
}

std::vector<double> Zozzle::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  std::vector<double> f(cfg_.dims, 0.0);
  for (const std::string& feat : context_features(analysis)) {
    f[fnv1a64(feat) % cfg_.dims] = 1.0;  // binary presence
  }
  return f;
}

void Zozzle::train(const analysis::AnalyzedCorpus& corpus) {
  ml::Matrix x(corpus.size(), cfg_.dims);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const analysis::ScriptAnalysis& analysis = *corpus.scripts[i];
    if (!analysis.parse_failed()) {
      const std::vector<double> f = featurize(analysis);
      std::copy(f.begin(), f.end(), x.row(i));
    }
  }
  nb_.fit(x, corpus.labels);
}

int Zozzle::classify(const analysis::ScriptAnalysis& analysis) const {
  return record_verdict(analysis.classify_or_malicious(
      [&] { return nb_.predict(featurize(analysis).data()); }));
}

}  // namespace jsrev::detect
