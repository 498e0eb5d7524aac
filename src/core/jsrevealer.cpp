#include "core/jsrevealer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/decision_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace jsrev::core {

JsRevealer::JsRevealer(Config cfg) : cfg_(cfg) {
  if (cfg_.trace) obs::Tracer::global().set_enabled(true);
  lint_dim_ = cfg_.lint_features ? lint::kLintFeatureDim : 0;
  ml::AttentionModelConfig mc;
  mc.embedding_dim = cfg_.embedding_dim;
  mc.epochs = cfg_.embed_epochs;
  mc.learning_rate = cfg_.learning_rate;
  mc.seed = cfg_.seed;
  model_ = ml::AttentionModel(mc);
  classifier_ = ml::make_classifier(cfg_.classifier, cfg_.seed, cfg_.threads);
}

std::vector<paths::PathContext> JsRevealer::extract(
    const analysis::ScriptAnalysis& analysis) const {
  static obs::Summary* const enhanced_ast_stage =
      obs::stage_summary("enhanced_ast");
  static obs::Summary* const path_traversal_stage =
      obs::stage_summary("path_traversal");
  if (analysis.parse_failed()) {
    throw std::runtime_error(analysis.parse_error());
  }

  // Forcing dataflow() here is free when another consumer (lint, a second
  // detector) already materialized it on the shared artifact; the sampled
  // cost is then near zero, and the true cost was sampled by whoever forced
  // it first.
  Timer t1;
  const analysis::DataFlowInfo* flow =
      cfg_.path.use_dataflow ? &analysis.dataflow() : nullptr;
  enhanced_ast_stage->observe(t1.elapsed_ms());

  Timer t2;
  auto pcs = paths::extract_paths(analysis.root(), flow, cfg_.path);
  path_traversal_stage->observe(t2.elapsed_ms());
  return pcs;
}

void JsRevealer::train(const dataset::Corpus& corpus) {
  obs::Span train_span("core.train", "core");
  Rng rng(cfg_.seed);

  // ---- Stage 1: path extraction over the training corpus (grows vocab) ---
  // Parse + enhanced-AST analysis + path enumeration fan out per file (the
  // per-module cost leaders of the paper's Table VIII); vocabulary interning
  // is order-dependent (ids assigned on first sight), so it stays serial in
  // sample order — ids are therefore identical at any thread count.
  //
  // Each sample's ScriptAnalysis is shared between path extraction and the
  // lint summary tail (stage 5 consumes the vectors computed here), so
  // training parses every script exactly once even with lint features on.
  const std::size_t n_samples = corpus.samples.size();
  std::vector<std::vector<paths::PathContext>> extracted(n_samples);
  std::vector<std::vector<double>> lint_vecs(n_samples);
  {
    obs::Span span("core.train.extract", "core");
    parallel_for_threads(cfg_.threads, n_samples, [&](std::size_t i) {
      const analysis::ScriptAnalysis a(corpus.samples[i].source, {},
                                       cfg_.deobfuscate);
      try {
        extracted[i] = extract(a);
      } catch (const std::exception&) {
        // unparseable training sample contributes nothing
      }
      if (lint_dim_ != 0) {
        lint_vecs[i] = lint::lint_feature_vector(linter_.lint(a));
      }
    });
  }

  std::vector<std::vector<std::int32_t>> script_ids(n_samples);
  std::vector<int> labels(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    labels[i] = corpus.samples[i].label;
    auto& ids = script_ids[i];
    ids.reserve(extracted[i].size());
    for (const auto& pc : extracted[i]) {
      if (vocab_.size() < cfg_.max_vocab) {
        ids.push_back(vocab_.add(pc));
      } else {
        ids.push_back(vocab_.lookup(pc));
      }
    }
  }
  extracted.clear();
  extracted.shrink_to_fit();

  // ---- Stage 2: pre-train the embedding model -----------------------------
  // The paper pre-trains on 5,000 held-aside scripts; by default we use the
  // training corpus itself (cfg_.pretrain_scripts == 0), subsampling paths
  // per script for tractable epochs.
  {
    obs::Span span("core.train.pretrain", "core");
    Timer t;
    std::vector<ml::ScriptPaths> train_scripts;
    std::size_t budget = cfg_.pretrain_scripts == 0
                             ? corpus.samples.size()
                             : cfg_.pretrain_scripts;
    for (std::size_t i = 0; i < corpus.samples.size() && budget > 0; ++i) {
      if (script_ids[i].empty()) continue;
      --budget;
      ml::ScriptPaths sp;
      sp.label = labels[i];
      sp.path_ids = script_ids[i];
      if (sp.path_ids.size() > cfg_.train_paths_per_script) {
        rng.shuffle(sp.path_ids);
        sp.path_ids.resize(cfg_.train_paths_per_script);
      }
      train_scripts.push_back(std::move(sp));
    }
    model_.train(train_scripts, vocab_.size());
    const double total = t.elapsed_ms();
    if (!train_scripts.empty()) {
      // Table VIII reports pre-training time per file.
      obs::stage_summary("pretraining")
          ->observe(total / static_cast<double>(train_scripts.size()));
    }
  }

  // ---- Stage 3: per-class vector sample, outlier removal, clustering ------
  auto build_class = [&](int label, ml::Matrix* inliers_out,
                         std::vector<std::int32_t>* inlier_ids_out) {
    // Sample (path id, weight) pairs across all scripts of the class.
    std::vector<std::int32_t> sampled_ids;
    for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
      if (labels[i] != label) continue;
      for (const std::int32_t id : script_ids[i]) {
        if (id >= 0) sampled_ids.push_back(id);
      }
    }
    rng.shuffle(sampled_ids);
    if (sampled_ids.size() > cfg_.cluster_sample_per_class) {
      sampled_ids.resize(cfg_.cluster_sample_per_class);
    }

    const auto d = static_cast<std::size_t>(cfg_.embedding_dim);
    ml::Matrix vecs(sampled_ids.size(), d);
    parallel_for_threads(cfg_.threads, sampled_ids.size(), [&](std::size_t r) {
      const std::vector<double> e = model_.path_embedding(sampled_ids[r]);
      std::copy(e.begin(), e.end(), vecs.row(r));
    });

    // Outlier removal (FastABOD by default; optionally MetaOD-style pick;
    // skippable entirely for the ablation bench).
    Timer t_out;
    ml::OutlierConfig ocfg;
    ocfg.k_neighbors = cfg_.outlier_k_neighbors;
    ocfg.threads = cfg_.threads;
    ocfg.contamination = cfg_.skip_outlier_removal
                             ? 0.0
                             : cfg_.outlier_contamination;
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
  clusters_removed_ = 0;
  for (const bool b : drop_b) clusters_removed_ += b;
  for (const bool m : drop_m) clusters_removed_ += m;

  feature_dim_ = cb.centroids.rows() + cm.centroids.rows() -
                 clusters_removed_;
  centroids_ = ml::Matrix(feature_dim_, d);
  centroid_benign_.assign(benign_word_count(feature_dim_), 0);
  centroid_radius_.assign(feature_dim_, 0.0);
  std::size_t row = 0;
  for (std::size_t i = 0; i < cb.centroids.rows(); ++i) {
    if (drop_b[i]) continue;
    std::copy(cb.centroids.row(i), cb.centroids.row(i) + d,
              centroids_.row(row));
    set_benign_bit(centroid_benign_.data(), row, true);
    centroid_radius_[row] = rms_radius(cb, i);
    ++row;
  }
  for (std::size_t j = 0; j < cm.centroids.rows(); ++j) {
    if (drop_m[j]) continue;
    std::copy(cm.centroids.row(j), cm.centroids.row(j) + d,
              centroids_.row(row));
    centroid_radius_[row] = rms_radius(cm, j);
    ++row;
  }

  // Interpretability inverse index: nearest inlier vector (with its vocab
  // id) to each surviving centroid.
  central_path_.assign(feature_dim_, std::string());
  auto assign_central = [&](const ml::Matrix& vecs,
                            const std::vector<std::int32_t>& ids) {
    // O(feature_dim * n * d) scan; each feature owns its slots.
    parallel_for_threads(cfg_.threads, feature_dim_, [&](std::size_t f) {
      double best = centroid_nearest_d_[f];
      for (std::size_t r = 0; r < vecs.rows(); ++r) {
        const double dist = ml::squared_distance(centroids_.row(f),
                                                 vecs.row(r), d);
        if (dist < best) {
          best = dist;
          central_path_[f] = std::string(vocab_.key(ids[r]));
        }
      }
      centroid_nearest_d_[f] = best;
    });
  };
  centroid_nearest_d_.assign(feature_dim_,
                             std::numeric_limits<double>::max());
  assign_central(benign_vecs, benign_ids);
  assign_central(malicious_vecs, malicious_ids);

  // ---- Stage 5: featurize the training corpus and fit the classifier ------
  // Cluster-membership features, then (when enabled) the per-script lint
  // summary tail. Both land in disjoint row slots, so the fan-out keeps the
  // bit-identical-at-any-width guarantee.
  ml::Matrix x(n_samples, feature_dim_ + lint_dim_);
  std::vector<int> y(n_samples);
  {
    obs::Span span("core.train.featurize", "core");
    parallel_for_threads(cfg_.threads, n_samples, [&](std::size_t i) {
      ml::EmbeddedScript emb = model_.embed(script_ids[i]);
      const std::vector<double> f = features_from_embedding(emb);
      std::copy(f.begin(), f.end(), x.row(i));
      if (lint_dim_ != 0) {
        std::copy(lint_vecs[i].begin(), lint_vecs[i].end(),
                  x.row(i) + feature_dim_);
      }
      y[i] = labels[i];
    });
  }
  scaler_.fit(x);
  scaler_.transform(x);

  Timer t_fit;
  classifier_->fit(x, y);
  obs::stage_summary("classifier_train")
      ->observe(t_fit.elapsed_ms() /
                static_cast<double>(std::max<std::size_t>(1, x.rows())));

  // ---- Stage 6: attach the owned view every inference call runs through --
  // The bytes were checksummed as they were written, so the attach skips
  // the verification pass.
  view_.from_buffer(write_artifact(), /*verify_checksums=*/false);
  view_.classifier_ = classifier_.get();
  view_.set_threads(cfg_.threads);
  trained_ = true;
}

std::vector<double> JsRevealer::features_from_embedding(
    const ml::EmbeddedScript& emb) const {
  // The kernel a ModelView runs at inference, over this detector's own
  // storage: training rows and inference rows are computed identically.
  ClusterParams p;
  p.centroids = centroids_.data().data();
  p.radius = centroid_radius_.data();
  p.benign = centroid_benign_.data();
  p.feature_dim = static_cast<std::uint32_t>(feature_dim_);
  p.dim = static_cast<std::uint32_t>(cfg_.embedding_dim);
  p.binary_features = cfg_.binary_cluster_features;
  return cluster_features(p, emb);
}

std::vector<double> JsRevealer::featurize(const std::string& source) const {
  return featurize(analysis::ScriptAnalysis(source, {}, cfg_.deobfuscate));
}

std::vector<double> JsRevealer::featurize(
    const analysis::ScriptAnalysis& analysis) const {
  return view_.featurize(analysis);
}

int JsRevealer::classify(const std::string& source) const {
  return classify(analysis::ScriptAnalysis(source, {}, cfg_.deobfuscate));
}

int JsRevealer::classify(const analysis::ScriptAnalysis& analysis) const {
  obs::Span span("core.classify", "core");
  return record_verdict(view_.classify_timed(analysis, name()));
}

obs::VerdictProvenance JsRevealer::explain(const std::string& source) const {
  analysis::ScriptAnalysis analysis(source, {}, cfg_.deobfuscate);
  analysis.enable_provenance();
  classify(analysis);
  return *analysis.provenance();
}

template <typename Item>
std::vector<int> JsRevealer::classify_batch(std::size_t n, Item item) const {
  std::vector<int> verdicts(n, 1);
  obs::Span span("core.classify_all", "core");
  parallel_for_threads(cfg_.threads, n, [&](std::size_t i) {
    verdicts[i] = classify(item(i));
  });
  return verdicts;
}

std::vector<int> JsRevealer::classify_all(
    const std::vector<std::string>& sources) const {
  return classify_batch(sources.size(), [&](std::size_t i) -> const auto& {
    return sources[i];
  });
}

std::vector<int> JsRevealer::classify_all(
    const analysis::AnalyzedCorpus& corpus) const {
  return classify_batch(corpus.size(), [&](std::size_t i) -> const auto& {
    return *corpus.scripts[i];
  });
}

ml::Metrics JsRevealer::evaluate(const dataset::Corpus& corpus) const {
  std::vector<std::string> sources;
  std::vector<int> truth;
  sources.reserve(corpus.samples.size());
  truth.reserve(corpus.samples.size());
  for (const auto& s : corpus.samples) {
    sources.push_back(s.source);
    truth.push_back(s.label);
  }
  return ml::compute_metrics(truth, classify_all(sources));
}

ml::Metrics JsRevealer::evaluate(const analysis::AnalyzedCorpus& corpus) const {
  return ml::compute_metrics(corpus.labels, classify_all(corpus));
}

std::vector<FeatureReportEntry> JsRevealer::feature_report(int n) const {
  std::vector<FeatureReportEntry> out;
  const auto* forest = dynamic_cast<const ml::RandomForest*>(classifier_.get());
  if (forest == nullptr || !trained_) return out;

  const std::vector<double> imp = forest->feature_importances();
  std::vector<std::size_t> order(imp.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&imp](std::size_t a, std::size_t b) {
    return imp[a] > imp[b];
  });

  for (std::size_t i = 0; i < order.size() && out.size() < static_cast<std::size_t>(n); ++i) {
    FeatureReportEntry e;
    e.feature_index = static_cast<int>(order[i]);
    e.importance = imp[order[i]];
    if (order[i] < feature_dim_) {
      e.from_benign = benign_bit(centroid_benign_.data(), order[i]);
      e.central_path = central_path_[order[i]];
    } else {
      // Lint-tail feature: no centroid behind it, label it by name.
      e.from_benign = false;
      e.central_path =
          "lint:" + lint::lint_feature_names()[order[i] - feature_dim_];
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<double> JsRevealer::sse_curve(const dataset::Corpus& corpus,
                                          int label, int k_lo, int k_hi) {
  // Requires a trained embedding model + vocab (call train() first, or this
  // trains on the given corpus implicitly).
  if (!model_.trained()) train(corpus);

  Rng rng(cfg_.seed + 7);
  // Extraction fans out per script; id collection stays serial in sample
  // order so the shuffle below consumes an order-independent sequence.
  std::vector<std::vector<std::int32_t>> per_script(corpus.samples.size());
  parallel_for_threads(
      cfg_.threads, corpus.samples.size(), [&](std::size_t i) {
        const auto& s = corpus.samples[i];
        if (s.label != label) return;
        std::vector<paths::PathContext> pcs;
        try {
          const analysis::ScriptAnalysis a(s.source, {}, cfg_.deobfuscate);
          pcs = extract(a);
        } catch (const std::exception&) {
          return;
        }
        for (const auto& pc : pcs) {
          const std::int32_t id = vocab_.lookup(pc);
          if (id >= 0) per_script[i].push_back(id);
        }
      });
  std::vector<std::int32_t> sampled_ids;
  for (const auto& ids : per_script) {
    sampled_ids.insert(sampled_ids.end(), ids.begin(), ids.end());
  }
  rng.shuffle(sampled_ids);
  if (sampled_ids.size() > cfg_.cluster_sample_per_class) {
    sampled_ids.resize(cfg_.cluster_sample_per_class);
  }
  const auto d = static_cast<std::size_t>(cfg_.embedding_dim);
  ml::Matrix vecs(sampled_ids.size(), d);
  parallel_for_threads(cfg_.threads, sampled_ids.size(), [&](std::size_t r) {
    const std::vector<double> e = model_.path_embedding(sampled_ids[r]);
    std::copy(e.begin(), e.end(), vecs.row(r));
  });

  std::vector<double> sse;
  for (int k = k_lo; k <= k_hi; ++k) {
    ml::KMeansConfig kc;
    kc.k = k;
    kc.seed = cfg_.seed + static_cast<std::uint64_t>(k);
    kc.threads = cfg_.threads;
    sse.push_back(ml::bisecting_kmeans(vecs, kc).sse);
  }
  return sse;
}

}  // namespace jsrev::core
