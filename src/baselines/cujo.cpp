#include "baselines/cujo.h"

#include <algorithm>
#include <cmath>

namespace jsrev::detect {

Cujo::Cujo(CujoConfig cfg)
    : cfg_(cfg), hasher_(cfg.q, cfg.dims) {
  ml::LinearConfig lc;
  lc.seed = cfg.seed;
  svm_ = ml::LinearSvm(lc);
}

std::vector<std::string> Cujo::normalize_tokens(
    const std::vector<js::Token>& tokens) {
  std::vector<std::string> out;
  for (const js::Token& t : tokens) {
    switch (t.type) {
      case js::TokenType::kEof:
        break;
      case js::TokenType::kIdentifier:
        out.emplace_back("ID");
        break;
      case js::TokenType::kNumericLiteral:
        out.emplace_back("NUM");
        break;
      case js::TokenType::kStringLiteral:
      case js::TokenType::kTemplateString:
        // CUJO buckets strings by length.
        out.emplace_back(t.string_value.size() < 16 ? "STR.short"
                                                    : "STR.long");
        break;
      case js::TokenType::kRegexLiteral:
        out.emplace_back("REGEX");
        break;
      default:
        out.push_back(t.value);  // keywords and punctuators stay literal
        break;
    }
  }
  return out;
}

std::vector<double> Cujo::featurize(
    const std::vector<js::Token>& tokens) const {
  std::vector<double> f(cfg_.dims, 0.0);
  hasher_.accumulate(normalize_tokens(tokens), f);
  l2_normalize(f);
  return f;
}

void Cujo::train(const analysis::AnalyzedCorpus& corpus) {
  ml::Matrix x(corpus.size(), cfg_.dims);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (const std::vector<js::Token>* tokens = corpus.scripts[i]->tokens()) {
      const std::vector<double> f = featurize(*tokens);
      std::copy(f.begin(), f.end(), x.row(i));
    }
  }
  svm_.fit(x, corpus.labels);
}

int Cujo::classify(const analysis::ScriptAnalysis& analysis) const {
  const std::vector<js::Token>* tokens = analysis.tokens();
  if (tokens == nullptr) {
    // Unlexable input → malicious by the shared convention.
    return record_verdict(analysis::ScriptAnalysis::kUnparseableVerdict);
  }
  return record_verdict(svm_.predict(featurize(*tokens).data()));
}

}  // namespace jsrev::detect
