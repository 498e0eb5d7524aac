#include "core/jsrevealer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "ml/decision_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace jsrev::core {
namespace {

// Paths sampled per script for each pre-training step (the full path set is
// still used for feature extraction).
constexpr std::size_t kTrainPathsPerScript = 400;

}  // namespace

JsRevealer::JsRevealer(Config cfg) : cfg_(cfg) {
  if (cfg_.path.max_paths != paths::PathConfig{}.max_paths) {
    throw std::invalid_argument(
        "JsRevealer: Config::path.max_paths must be the default " +
        std::to_string(paths::PathConfig{}.max_paths) +
        " (the artifact does not record it)");
  }
  const paths::PathConfig& window = cfg_.path;
  if (window.max_length < 0 || window.max_length > paths::kMaxPathLength ||
      window.max_width < 0 || window.max_width > paths::kMaxPathWidth) {
    throw std::invalid_argument(
        "JsRevealer: Config::path.max_length must be in [0, " +
        std::to_string(paths::kMaxPathLength) + "] and max_width in [0, " +
        std::to_string(paths::kMaxPathWidth) + "] (the artifact's bounds)");
  }
  set_threads(cfg_.threads);
  deobfuscate_ = cfg_.deobfuscate;
}

JsRevealer::Pretrained JsRevealer::pretrain(
    const analysis::AnalyzedCorpus& corpus, Rng& rng) const {
  Pretrained pre;

  // ---- Stage 1: path extraction over the training corpus (grows vocab) ---
  // Parse + enhanced-AST analysis + path enumeration fan out per file (the
  // per-module cost leaders of the paper's Table VIII); vocabulary interning
  // is order-dependent (ids assigned on first sight), so it stays serial in
  // sample order — ids are therefore identical at any thread count.
  //
  // Each sample's ScriptAnalysis is shared between path extraction and the
  // lint summary tail (stage 5 consumes the vectors computed here), so
  // training parses every script exactly once even with lint features on;
  // an analysis the caller already parsed is not parsed again.
  const std::size_t n_samples = corpus.size();
  std::vector<std::vector<paths::PathContext>> extracted(n_samples);
  pre.lint_vecs.resize(n_samples);
  {
    obs::Span span("core.train.extract", "core");
    parallel_for_threads(cfg_.threads, n_samples, [&](std::size_t i) {
      const analysis::ScriptAnalysis& a = *corpus.scripts[i];
      try {
        obs::StageDurationsMs ms;
        extracted[i] = extract(a, cfg_.path, &ms).contexts();
      } catch (const std::exception&) {
        // unparseable training sample contributes nothing
      }
      if (cfg_.lint_features) {
        pre.lint_vecs[i] = lint::lint_feature_vector(linter_.lint(a));
      }
    });
  }

  pre.script_ids.resize(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    auto& ids = pre.script_ids[i];
    ids.reserve(extracted[i].size());
    for (const auto& pc : extracted[i]) {
      if (pre.vocab.size() < kMaxVocab) {
        ids.push_back(pre.vocab.add(pc));
      } else {
        ids.push_back(pre.vocab.lookup(pc));
      }
    }
  }
  extracted.clear();
  extracted.shrink_to_fit();

  // ---- Stage 2: pre-train the embedding model -----------------------------
  // The paper pre-trains on 5,000 held-aside scripts; we use the training
  // corpus itself, subsampling paths per script for tractable epochs.
  {
    obs::Span span("core.train.pretrain", "core");
    Timer timer;
    std::vector<ml::ScriptPaths> train_scripts;
    for (std::size_t i = 0; i < n_samples; ++i) {
      if (pre.script_ids[i].empty()) continue;
      ml::ScriptPaths sp;
      sp.label = corpus.labels[i];
      sp.path_ids = pre.script_ids[i];
      if (sp.path_ids.size() > kTrainPathsPerScript) {
        rng.shuffle(sp.path_ids);
        sp.path_ids.resize(kTrainPathsPerScript);
      }
      train_scripts.push_back(std::move(sp));
    }
    ml::AttentionModelConfig mc;
    mc.embedding_dim = cfg_.embedding_dim;
    mc.epochs = cfg_.embed_epochs;
    mc.seed = cfg_.seed;
    pre.model = ml::AttentionModel(mc);
    pre.model.train(train_scripts, pre.vocab.size());
    const double total = timer.elapsed_ms();
    if (!train_scripts.empty()) {
      // Table VIII reports pre-training time per file.
      obs::stage_summary("pretraining")
          ->observe(total / static_cast<double>(train_scripts.size()));
    }
  }
  return pre;
}

ml::Matrix JsRevealer::sample_path_vectors(
    const Pretrained& pre, const analysis::AnalyzedCorpus& corpus, int label,
    Rng& rng, std::vector<std::int32_t>* ids) const {
  ids->clear();
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (corpus.labels[i] != label) continue;
    for (const std::int32_t id : pre.script_ids[i]) {
      if (id >= 0) ids->push_back(id);
    }
  }
  rng.shuffle(*ids);
  if (ids->size() > cfg_.cluster_sample_per_class) {
    ids->resize(cfg_.cluster_sample_per_class);
  }
  ml::Matrix vecs(ids->size(), static_cast<std::size_t>(cfg_.embedding_dim));
  parallel_for_threads(cfg_.threads, ids->size(), [&](std::size_t r) {
    const std::vector<double> e = pre.model.path_embedding((*ids)[r]);
    std::copy(e.begin(), e.end(), vecs.row(r));
  });
  return vecs;
}

void JsRevealer::train(const analysis::AnalyzedCorpus& corpus) {
  obs::Span train_span("core.train", "core");
  Rng rng(cfg_.seed);
  const std::size_t lint_dim = cfg_.lint_features ? lint::kLintFeatureDim : 0;
  const std::size_t n_samples = corpus.size();
  const Pretrained pre = pretrain(corpus, rng);
  Trained trained;

  // ---- Stage 3: per-class vector sample, outlier removal, clustering ------
  auto build_class = [&](int label, ml::Matrix* inliers_out,
                         std::vector<std::int32_t>* inlier_ids_out) {
    std::vector<std::int32_t> sampled_ids;
    const ml::Matrix vecs =
        sample_path_vectors(pre, corpus, label, rng, &sampled_ids);
    const auto d = vecs.cols();

    // Outlier removal (FastABOD by default; optionally MetaOD-style pick;
    // skippable entirely for the ablation bench).
    Timer t_out;
    ml::OutlierConfig ocfg;
    ocfg.threads = cfg_.threads;
    if (cfg_.run_outlier_selection && !cfg_.skip_outlier_removal) {
      outlier_method_ = ml::select_outlier_method(vecs, ocfg);
    }
    ml::OutlierResult out;
    if (cfg_.skip_outlier_removal) {
      out.scores.assign(vecs.rows(), 0.0);
      out.is_outlier.assign(vecs.rows(), false);
    } else {
      out = ml::run_outlier(outlier_method_, vecs, ocfg);
    }
    obs::stage_summary("outlier")->observe(t_out.elapsed_ms());

    std::size_t kept = 0;
    for (std::size_t r = 0; r < vecs.rows(); ++r) kept += !out.is_outlier[r];
    ml::Matrix inliers(kept, d);
    std::vector<std::int32_t> inlier_ids;
    inlier_ids.reserve(kept);
    std::size_t w = 0;
    for (std::size_t r = 0; r < vecs.rows(); ++r) {
      if (out.is_outlier[r]) continue;
      std::copy(vecs.row(r), vecs.row(r) + d, inliers.row(w));
      inlier_ids.push_back(sampled_ids[r]);
      ++w;
    }
    *inliers_out = std::move(inliers);
    *inlier_ids_out = std::move(inlier_ids);
  };

  ml::Matrix benign_vecs, malicious_vecs;
  std::vector<std::int32_t> benign_ids, malicious_ids;
  build_class(0, &benign_vecs, &benign_ids);
  build_class(1, &malicious_vecs, &malicious_ids);

  Timer t_cluster;
  ml::KMeansConfig kb;
  kb.k = cfg_.k_benign;
  kb.seed = rng();
  kb.threads = cfg_.threads;
  const ml::Clustering cb = ml::bisecting_kmeans(benign_vecs, kb);
  ml::KMeansConfig km;
  km.k = cfg_.k_malicious;
  km.seed = rng();
  km.threads = cfg_.threads;
  const ml::Clustering cm = ml::bisecting_kmeans(malicious_vecs, km);
  obs::stage_summary("clustering")->observe(t_cluster.elapsed_ms());

  // ---- Stage 4: overlap removal between the two cluster sets --------------
  const auto d = static_cast<std::size_t>(cfg_.embedding_dim);
  auto rms_radius = [&](const ml::Clustering& c, std::size_t idx) {
    return c.sizes[idx] > 0
               ? std::sqrt(c.cluster_sse[idx] /
                           static_cast<double>(c.sizes[idx]))
               : 0.0;
  };
  double mean_radius = 0.0;
  for (std::size_t i = 0; i < cb.centroids.rows(); ++i) {
    mean_radius += rms_radius(cb, i);
  }
  for (std::size_t i = 0; i < cm.centroids.rows(); ++i) {
    mean_radius += rms_radius(cm, i);
  }
  mean_radius /= static_cast<double>(cb.centroids.rows() +
                                     cm.centroids.rows());
  const double overlap_dist = cfg_.overlap_factor * mean_radius;

  std::vector<bool> drop_b(cb.centroids.rows(), false);
  std::vector<bool> drop_m(cm.centroids.rows(), false);
  for (std::size_t i = 0; i < cb.centroids.rows(); ++i) {
    for (std::size_t j = 0; j < cm.centroids.rows(); ++j) {
      const double dist = std::sqrt(ml::squared_distance(
          cb.centroids.row(i), cm.centroids.row(j), d));
      if (dist < overlap_dist) {
        drop_b[i] = true;
        drop_m[j] = true;
      }
    }
  }
  for (const bool b : drop_b) trained.clusters_removed += b;
  for (const bool m : drop_m) trained.clusters_removed += m;

  // The surviving centroids (benign first) and their RMS radii.
  const std::size_t feature_dim =
      cb.centroids.rows() + cm.centroids.rows() - trained.clusters_removed;
  ml::Matrix centroids(feature_dim, d);
  std::vector<double> radius(feature_dim, 0.0);
  trained.benign.assign(fmt::benign_word_count(feature_dim), 0);
  std::size_t row = 0;
  for (std::size_t i = 0; i < cb.centroids.rows(); ++i) {
    if (drop_b[i]) continue;
    std::copy(cb.centroids.row(i), cb.centroids.row(i) + d,
              centroids.row(row));
    fmt::set_benign_bit(trained.benign.data(), row);
    radius[row] = rms_radius(cb, i);
    ++row;
  }
  for (std::size_t j = 0; j < cm.centroids.rows(); ++j) {
    if (drop_m[j]) continue;
    std::copy(cm.centroids.row(j), cm.centroids.row(j) + d,
              centroids.row(row));
    radius[row] = rms_radius(cm, j);
    ++row;
  }

  // Interpretability inverse index: nearest inlier vector (with its vocab
  // id) to each surviving centroid.
  trained.central_path.assign(feature_dim, std::string());
  std::vector<double> nearest_d(feature_dim,
                                std::numeric_limits<double>::max());
  auto assign_central = [&](const ml::Matrix& vecs,
                            const std::vector<std::int32_t>& ids) {
    // O(feature_dim * n * d) scan; each feature owns its slots.
    parallel_for_threads(cfg_.threads, feature_dim, [&](std::size_t f) {
      double best = nearest_d[f];
      for (std::size_t r = 0; r < vecs.rows(); ++r) {
        const double dist =
            ml::squared_distance(centroids.row(f), vecs.row(r), d);
        if (dist < best) {
          best = dist;
          trained.central_path[f] = std::string(pre.vocab.key(ids[r]));
        }
      }
      nearest_d[f] = best;
    });
  };
  assign_central(benign_vecs, benign_ids);
  assign_central(malicious_vecs, malicious_ids);

  // ---- Stage 5: featurize the training corpus and fit the forest ----------
  // First the per-path table: each vocabulary id's attention score and
  // cluster, the only part of the embedding model and the cluster geometry
  // that inference needs. Then cluster-membership features through that
  // table, and (when enabled) the per-script lint summary tail. Rows land in
  // disjoint slots, so the fan-out keeps the bit-identical-at-any-width
  // guarantee. The cluster features run the kernel ModelView::featurize
  // runs over the artifact's copy of the table, so training rows and
  // inference rows are computed identically.
  trained.path_table =
      ml::build_path_table(pre.model, centroids, radius, cfg_.threads);
  ml::PathTableView table;
  table.recs = trained.path_table.data();
  table.size = static_cast<std::uint32_t>(trained.path_table.size());
  table.n_clusters = static_cast<std::uint32_t>(feature_dim);
  table.binary = cfg_.binary_cluster_features;
  ml::Matrix x(n_samples, feature_dim + lint_dim);
  {
    obs::Span span("core.train.featurize", "core");
    parallel_for_threads(cfg_.threads, n_samples, [&](std::size_t i) {
      const std::vector<double> f = table.cluster_features(pre.script_ids[i]);
      std::copy(f.begin(), f.end(), x.row(i));
      if (lint_dim != 0) {
        std::copy(pre.lint_vecs[i].begin(), pre.lint_vecs[i].end(),
                  x.row(i) + feature_dim);
      }
    });
  }
  trained.scaler.fit(x);
  trained.scaler.transform(x);

  Timer t_fit;
  ml::ForestConfig fc;
  fc.seed = cfg_.seed;
  fc.threads = cfg_.threads;
  trained.forest = ml::RandomForest(fc);
  trained.forest.fit(x, corpus.labels);
  obs::stage_summary("classifier_train")
      ->observe(t_fit.elapsed_ms() /
                static_cast<double>(std::max<std::size_t>(1, x.rows())));
  importances_ = trained.forest.feature_importances();

  // ---- Stage 6: attach to the artifact every inference call runs on -----
  // The writer sealed the bytes it wrote, so the attach skips the payload
  // verification pass. `pre` and `trained` die with this frame.
  from_buffer(write_artifact(pre.vocab, trained), /*verify_checksums=*/false);
}

std::vector<FeatureReportEntry> JsRevealer::feature_report(int n) const {
  std::vector<FeatureReportEntry> out;
  if (!loaded()) return out;

  const std::vector<double>& imp = importances_;
  std::vector<std::size_t> order(imp.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&imp](std::size_t a, std::size_t b) {
    return imp[a] > imp[b];
  });

  for (std::size_t i = 0; i < order.size() && out.size() < static_cast<std::size_t>(n); ++i) {
    FeatureReportEntry e;
    e.feature_index = static_cast<int>(order[i]);
    e.importance = imp[order[i]];
    if (order[i] < header_.feature_dim) {
      e.from_benign = fmt::benign_bit(benign_, order[i]);
      e.central_path = std::string(central_path(order[i]));
    } else {
      // Lint-tail feature: no centroid behind it, label it by name.
      e.from_benign = false;
      e.central_path =
          "lint:" + lint::lint_feature_names()[order[i] - header_.feature_dim];
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::array<std::vector<double>, 2> JsRevealer::sse_curves(
    const dataset::Corpus& corpus, int k_lo, int k_hi) const {
  // Path vectors are tanh(W[id]) of the embedding model train()'s stages
  // 1-2 pre-train on `corpus`, sampled as stage 3 samples them.
  const analysis::AnalyzedCorpus analyzed =
      detect::lazy_analyses(corpus, parse_limits_, deobfuscate_);
  Rng train_rng(cfg_.seed);
  const Pretrained pre = pretrain(analyzed, train_rng);

  std::array<std::vector<double>, 2> curves;
  for (int label = 0; label < 2; ++label) {
    Rng rng(cfg_.seed + 7);  // each class's sample draws from a fresh stream
    std::vector<std::int32_t> ids;
    const ml::Matrix vecs =
        sample_path_vectors(pre, analyzed, label, rng, &ids);
    for (int k = k_lo; k <= k_hi; ++k) {
      ml::KMeansConfig kc;
      kc.k = k;
      kc.seed = cfg_.seed + static_cast<std::uint64_t>(k);
      kc.threads = cfg_.threads;
      curves[static_cast<std::size_t>(label)].push_back(
          ml::bisecting_kmeans(vecs, kc).sse);
    }
  }
  return curves;
}

}  // namespace jsrev::core
