#include "baselines/jast.h"

#include <algorithm>
#include <stdexcept>

#include "js/visitor.h"

namespace jsrev::detect {

Jast::Jast(JastConfig cfg) : cfg_(cfg), vocab_(cfg.n, cfg.dims) {
  ml::ForestConfig fc;
  fc.seed = cfg.seed;
  forest_ = ml::RandomForest(fc);
}

std::vector<std::string> Jast::unit_sequence(
    const analysis::ScriptAnalysis& analysis) {
  std::vector<std::string> units;
  js::walk_all(analysis.root(), [&units](const js::Node* n) {
    units.emplace_back(js::node_kind_name(n->kind));
  });
  return units;
}

std::vector<std::string> Jast::unit_sequence(const std::string& source) {
  const analysis::ScriptAnalysis analysis(source);
  if (analysis.parse_failed()) {
    throw std::runtime_error(analysis.parse_error());
  }
  return unit_sequence(analysis);
}

std::vector<double> Jast::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  std::vector<double> f(vocab_.dims(), 0.0);
  vocab_.accumulate(unit_sequence(analysis), f);
  // JAST uses relative n-gram frequencies.
  double total = 0.0;
  for (const double v : f) total += v;
  if (total > 0) {
    for (double& v : f) v /= total;
  }
  return f;
}

void Jast::train(const dataset::Corpus& corpus) {
  // Pass 1: build the n-gram vocabulary from the training corpus.
  std::vector<std::vector<std::string>> sequences(corpus.samples.size());
  for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
    const analysis::ScriptAnalysis analysis(corpus.samples[i].source);
    if (!analysis.parse_failed()) {
      sequences[i] = unit_sequence(analysis);
    }
    // unparseable sample contributes no n-grams
    vocab_.count(sequences[i]);
  }
  vocab_.freeze();

  // Pass 2: featurize and fit.
  ml::Matrix x(corpus.samples.size(), vocab_.dims());
  std::vector<int> y(corpus.samples.size());
  for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
    std::vector<double> f(vocab_.dims(), 0.0);
    vocab_.accumulate(sequences[i], f);
    double total = 0.0;
    for (const double v : f) total += v;
    if (total > 0) {
      for (double& v : f) v /= total;
    }
    std::copy(f.begin(), f.end(), x.row(i));
    y[i] = corpus.samples[i].label;
  }
  forest_.fit(x, y);
}

int Jast::classify(const analysis::ScriptAnalysis& analysis) const {
  return record_verdict(analysis.classify_or_malicious(
      [&] { return forest_.predict(featurize(analysis).data()); }));
}

}  // namespace jsrev::detect
