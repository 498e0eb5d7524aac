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
// After pre-training on a labeled corpus, the model exposes, per script,
// the path embeddings e_i and attention weights alpha_i — the inputs of the
// feature-extraction stage.
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

struct EmbeddedScript {
  // Row i = embedding e_i of the i-th known path of the script.
  Matrix embeddings;
  std::vector<double> weights;  // alpha_i, aligned with embeddings rows
  // Vocabulary id of each embedded row (known paths only), aligned.
  std::vector<std::int32_t> path_ids;
};

class AttentionModel {
 public:
  explicit AttentionModel(AttentionModelConfig cfg = {});

  /// Pre-trains on labeled scripts over a vocabulary of `vocab_size` paths.
  /// Returns the final average training loss.
  double train(const std::vector<ScriptPaths>& scripts,
               std::size_t vocab_size);

  /// Embeds the paths of one (possibly unseen) script. Unknown path ids are
  /// skipped. An empty script yields an empty result.
  EmbeddedScript embed(const std::vector<std::int32_t>& path_ids) const;

  /// Classifier-head probability that the script is malicious (used by
  /// tests to check the head learned something; the detector itself uses
  /// the downstream cluster features instead).
  double predict_malicious(const std::vector<std::int32_t>& path_ids) const;

  int embedding_dim() const { return cfg_.embedding_dim; }
  bool trained() const { return trained_; }

  /// Embedding of a single vocabulary entry (column of W through tanh).
  std::vector<double> path_embedding(std::int32_t path_id) const;

  // Flat parameter access for the artifact writer (serialized verbatim; the
  // mapped ModelView reads the same layout back zero-copy).
  std::size_t vocab_size() const { return vocab_size_; }
  const Matrix& weight_matrix() const { return w_; }
  const std::vector<double>& attention_vector() const { return attn_; }
  const Matrix& head_matrix() const { return u_; }
  const std::vector<double>& head_bias() const { return bias_; }

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
