#include "core/family_classifier.h"

namespace jsrev::core {

FamilyClassifier::FamilyClassifier(std::size_t threads) : threads_(threads) {
  ml::ForestConfig fc;
  fc.threads = threads;
  forest_ = ml::MulticlassRandomForest(fc);
}

std::size_t FamilyClassifier::train(const ModelView& detector,
                                    const dataset::Corpus& corpus) {
  label_.clear();
  families_.clear();

  std::vector<const dataset::Sample*> malicious;
  for (const auto& s : corpus.samples) {
    if (s.label == 1 && !s.family.empty()) malicious.push_back(&s);
  }
  if (malicious.empty()) return 0;

  for (const auto* s : malicious) {
    if (label_.emplace(s->family, static_cast<int>(families_.size())).second) {
      families_.push_back(s->family);
    }
  }

  std::vector<std::size_t> used;
  const ml::Matrix x = detector.featurize_rows(malicious, threads_, &used);
  std::vector<int> y(used.size());
  for (std::size_t r = 0; r < used.size(); ++r) {
    y[r] = label_.at(malicious[used[r]]->family);
  }
  forest_.fit(x, y);
  trained_ = true;
  return used.size();
}

std::string FamilyClassifier::classify(const ModelView& detector,
                                       const std::string& source) const {
  if (!trained_) return {};
  std::vector<double> f;
  try {
    f = detector.featurize(source);
  } catch (const std::exception&) {
    return {};
  }
  const int label = forest_.predict(f.data());
  return label >= 0 && static_cast<std::size_t>(label) < families_.size()
             ? families_[static_cast<std::size_t>(label)]
             : std::string();
}

double FamilyClassifier::evaluate(const ModelView& detector,
                                  const dataset::Corpus& corpus) const {
  std::size_t correct = 0, total = 0;
  for (const auto& s : corpus.samples) {
    if (s.label != 1 || s.family.empty() || label_of(s.family) < 0) continue;
    ++total;
    correct += classify(detector, s.source) == s.family;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total)
                   : 0.0;
}

std::vector<std::vector<double>> FamilyClassifier::confusion(
    const ModelView& detector, const dataset::Corpus& corpus) const {
  const std::size_t k = families_.size();
  std::vector<std::vector<double>> m(k, std::vector<double>(k, 0.0));
  std::vector<std::size_t> row_totals(k, 0);
  for (const auto& s : corpus.samples) {
    if (s.label != 1 || s.family.empty()) continue;
    const int truth = label_of(s.family);
    if (truth < 0) continue;
    const std::string predicted = classify(detector, s.source);
    const int pred = label_of(predicted);
    if (pred < 0) continue;
    m[static_cast<std::size_t>(truth)][static_cast<std::size_t>(pred)] += 1.0;
    ++row_totals[static_cast<std::size_t>(truth)];
  }
  for (std::size_t r = 0; r < k; ++r) {
    if (row_totals[r] == 0) continue;
    for (double& v : m[r]) v /= static_cast<double>(row_totals[r]);
  }
  return m;
}

}  // namespace jsrev::core
