// Attention-based path embedding model (paper Section III-C, Eq. 1-5).
//
// Architecture: each path (a one-hot index into the path vocabulary) is
// embedded via a learned matrix W and tanh nonlinearity:
//     e_i = tanh(W[:, idx_i])                       (Eq. 1)
// attention weights over a script's paths:
//     alpha_i = softmax_i(e_i · a)                   (Eq. 2)
// script vector:
//     v = sum_i alpha_i * e_i                        (Eq. 3)
// binary classifier head:
//     y' = softmax(U v + b)                          (Eq. 4)
// trained with cross-entropy loss (Eq. 5) via manual backprop (Adam).
//
// After pre-training on a labeled corpus, the model exposes each path's
// embedding e_i and its attention score e_i · a — the inputs of the
// feature-extraction stage, which ml::build_path_table folds into one
// record per vocabulary id.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "util/rng.h"

namespace jsrev::ml {

struct AttentionModelConfig {
  int embedding_dim = 64;   // d; the paper uses 300
  int epochs = 30;          // the paper uses 100
  double learning_rate = 0.01;
  double weight_decay = 1e-5;
  std::uint64_t seed = 17;
  bool verbose = false;
};

/// One training script: its path vocabulary indices and binary label.
struct ScriptPaths {
  std::vector<std::int32_t> path_ids;  // kUnknown entries are skipped
  int label = 0;                       // 1 = malicious
};

class AttentionModel {
 public:
  explicit AttentionModel(AttentionModelConfig cfg = {});

  /// Pre-trains on labeled scripts over a vocabulary of `vocab_size` paths.
  /// Returns the final average training loss.
  double train(const std::vector<ScriptPaths>& scripts,
               std::size_t vocab_size);

  /// Classifier-head probability that the script is malicious (used by
  /// tests to check the head learned something; the detector itself uses
  /// the downstream cluster features instead).
  double predict_malicious(const std::vector<std::int32_t>& path_ids) const;

  int embedding_dim() const { return cfg_.embedding_dim; }
  bool trained() const { return trained_; }

  /// Embedding of a single vocabulary entry (column of W through tanh).
  std::vector<double> path_embedding(std::int32_t path_id) const;

  // What ml::build_path_table reads besides path_embedding().
  std::size_t vocab_size() const { return vocab_size_; }
  const std::vector<double>& attention_vector() const { return attn_; }

 private:
  struct Forward {
    Matrix e;                    // n x d embeddings
    std::vector<double> alpha;   // n attention weights
    std::vector<double> v;       // d aggregate
    double p_malicious = 0.5;
    std::vector<std::int32_t> ids;  // known path ids used
  };

  Forward forward(const std::vector<std::int32_t>& path_ids) const;

  AttentionModelConfig cfg_;
  std::size_t vocab_size_ = 0;
  Matrix w_;                  // vocab x d embedding matrix (rows = paths)
  std::vector<double> attn_;  // attention vector a, length d
  Matrix u_;                  // 2 x d classifier head
  std::vector<double> bias_;  // length 2
  bool trained_ = false;
};

}  // namespace jsrev::ml
