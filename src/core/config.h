// JSRevealer pipeline configuration.
//
// Defaults are CPU-scaled versions of the paper's hyperparameters: the paper
// trains a d=300 embedding for 100 epochs on a GPU and clusters millions of
// path vectors; we default to d=64 / fewer epochs / subsampled clustering,
// which preserves every qualitative result while keeping bench runtimes in
// minutes. The paper's exact values can be restored by overriding fields.
#pragma once

#include <cstdint>

#include "paths/path_extraction.h"

namespace jsrev::core {

struct Config {
  // Path extraction (paper Section III-B; paper values 12/4).
  paths::PathConfig path;

  // Embedding (paper Section III-C; paper: d=300, 100 epochs, 5000 scripts).
  int embedding_dim = 96;
  int embed_epochs = 24;
  double learning_rate = 0.01;
  // Per-script path subsample used when TRAINING the embedding model (the
  // full path set is still used for feature extraction).
  std::size_t train_paths_per_script = 400;
  // Pre-training subset size (balanced); 0 = use the whole training corpus.
  std::size_t pretrain_scripts = 0;

  // Feature extraction (paper Section III-D).
  int k_benign = 11;     // bisecting k-means K on benign path vectors
  int k_malicious = 10;  // ... on malicious path vectors
  int outlier_k_neighbors = 10;
  double outlier_contamination = 0.10;
  // Vectors subsampled per class for outlier detection + clustering (the
  // paper clusters all vectors on a GPU box; FastABOD is O(n^2)).
  std::size_t cluster_sample_per_class = 3000;
  // Clusters from the benign and malicious sets whose centroids are closer
  // than `overlap_factor` x (mean intra-cluster RMS radius) are dropped.
  double overlap_factor = 0.15;
  // Run the MetaOD-substitute selector instead of hardwiring FastABOD.
  bool run_outlier_selection = false;

  // Append the semantic lint summary vector (src/lint) to every feature
  // vector: [malice diags, hygiene diags, severity-weighted score, distinct
  // rules fired]. Off by default — the default pipeline (and its serialized
  // models) is bit-identical with and without the lint subsystem compiled in.
  bool lint_features = false;

  // Statically normalize every script through the src/deob fixpoint
  // pipeline (constant folding, string-array inlining, unflattening,
  // dead-code pruning, canonical renaming) before any analysis — training,
  // feature extraction, and classification all see the normalized form.
  // Off by default: the default pipeline stays bit-identical with the deob
  // subsystem compiled in but unused.
  bool deobfuscate = false;

  // Maximum vocabulary size; further paths are treated as unknown.
  std::size_t max_vocab = 200000;

  // Parallel width for every per-item pipeline stage (path extraction,
  // FastABOD, k-means assignment, forest training, batch prediction).
  // 0 = hardware concurrency; 1 = the exact legacy serial path. Results are
  // bit-identical at any width: per-item randomness is index-derived and all
  // floating-point accumulation stays in index order.
  std::size_t threads = 0;

  // --- ablation switches (bench_ablation) ---------------------------------
  // Paper design: feature values accumulate path ATTENTION WEIGHTS. The
  // ablation uses binary cluster occurrence instead (the alternative the
  // paper explicitly argues against in Section III-D).
  bool binary_cluster_features = false;
  // Skip the outlier-removal stage entirely (cluster raw path vectors).
  bool skip_outlier_removal = false;

  std::uint64_t seed = 42;
};

}  // namespace jsrev::core
