#include "ml/attention_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "ml/model_view_ops.h"
#include "obs/trace.h"

namespace jsrev::ml {

AttentionModel::AttentionModel(AttentionModelConfig cfg) : cfg_(cfg) {}

AttentionModel::Forward AttentionModel::forward(
    const std::vector<std::int32_t>& path_ids) const {
  Forward f;
  for (const std::int32_t id : path_ids) {
    if (id >= 0 && static_cast<std::size_t>(id) < vocab_size_) {
      f.ids.push_back(id);
    }
  }
  const std::size_t n = f.ids.size();
  const auto d = static_cast<std::size_t>(cfg_.embedding_dim);
  f.e = Matrix(n, d);
  f.alpha.resize(n);
  f.v.assign(d, 0.0);
  if (n == 0) return f;

  for (std::size_t i = 0; i < n; ++i) {
    const double* wrow = w_.row(static_cast<std::size_t>(f.ids[i]));
    double* erow = f.e.row(i);
    for (std::size_t k = 0; k < d; ++k) erow[k] = std::tanh(wrow[k]);
    f.alpha[i] = dot(erow, attn_.data(), d);
  }
  softmax_inplace(f.alpha);
  for (std::size_t i = 0; i < n; ++i) {
    const double* erow = f.e.row(i);
    for (std::size_t k = 0; k < d; ++k) f.v[k] += f.alpha[i] * erow[k];
  }

  double z0 = bias_[0] + dot(u_.row(0), f.v.data(), d);
  double z1 = bias_[1] + dot(u_.row(1), f.v.data(), d);
  const double mx = std::max(z0, z1);
  const double e0 = std::exp(z0 - mx);
  const double e1 = std::exp(z1 - mx);
  f.p_malicious = e1 / (e0 + e1);
  return f;
}

double AttentionModel::train(const std::vector<ScriptPaths>& scripts,
                             std::size_t vocab_size) {
  obs::Span span("ml.attention.train", "ml");
  vocab_size_ = vocab_size;
  const auto d = static_cast<std::size_t>(cfg_.embedding_dim);

  Rng rng(cfg_.seed);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  w_ = Matrix(vocab_size, d);
  for (double& x : w_.data()) x = rng.normal() * scale;
  attn_.resize(d);
  for (double& x : attn_) x = rng.normal() * scale;
  u_ = Matrix(2, d);
  for (double& x : u_.data()) x = rng.normal() * scale;
  bias_.assign(2, 0.0);

  // Adam state. The embedding matrix W is updated SPARSELY: per sample only
  // the rows of the paths actually seen are touched (gradient, Adam moments,
  // and weight decay alike) — the dense alternative is O(vocab x d) per
  // sample and dominates runtime at realistic vocabulary sizes.
  struct Adam {
    std::vector<double> m, v;
    void init(std::size_t n) {
      m.assign(n, 0.0);
      v.assign(n, 0.0);
    }
  };
  Adam aw, aa, au, ab;
  aw.init(w_.data().size());
  aa.init(attn_.size());
  au.init(u_.data().size());
  ab.init(bias_.size());
  constexpr double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  long step = 0;

  auto adam_apply = [&](double* param, double* grad, Adam& st,
                        std::size_t offset, std::size_t count) {
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(step));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(step));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t gi = offset + i;
      const double g = grad[i] + cfg_.weight_decay * param[i];
      st.m[gi] = b1 * st.m[gi] + (1 - b1) * g;
      st.v[gi] = b2 * st.v[gi] + (1 - b2) * g * g;
      param[i] -= cfg_.learning_rate * (st.m[gi] / bc1) /
                  (std::sqrt(st.v[gi] / bc2) + eps);
      grad[i] = 0.0;
    }
  };

  std::vector<std::size_t> order(scripts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Per-sample gradients: W rows are accumulated in a sparse row map; the
  // small parameters use dense buffers.
  std::vector<double> ga(attn_.size(), 0.0);
  std::vector<double> gu(u_.data().size(), 0.0);
  std::vector<double> gb(bias_.size(), 0.0);
  std::vector<std::int32_t> touched;          // unique rows this sample
  std::vector<double> touched_grads;          // touched.size() * d

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t counted = 0;

    for (const std::size_t si : order) {
      const ScriptPaths& s = scripts[si];
      Forward f = forward(s.path_ids);
      const std::size_t n = f.ids.size();
      if (n == 0) continue;
      ++counted;
      ++step;

      const double y = s.label == 1 ? 1.0 : 0.0;
      const double p = std::clamp(f.p_malicious, 1e-9, 1.0 - 1e-9);
      epoch_loss += -(y * std::log(p) + (1 - y) * std::log(1 - p));

      // dL/dz = y' - y (softmax + CE), z = [benign, malicious] logits.
      const double dz1 = f.p_malicious - y;
      const double dz0 = -dz1;

      // Head gradients; dv = U^T dz.
      std::vector<double> dv(d, 0.0);
      for (std::size_t k = 0; k < d; ++k) {
        gu[0 * d + k] += dz0 * f.v[k];
        gu[1 * d + k] += dz1 * f.v[k];
        dv[k] = dz0 * u_(0, k) + dz1 * u_(1, k);
      }
      gb[0] += dz0;
      gb[1] += dz1;

      // v = sum alpha_i e_i  →  de_i += alpha_i dv; dalpha_i = dv·e_i.
      std::vector<double> dalpha(n);
      for (std::size_t i = 0; i < n; ++i) {
        dalpha[i] = dot(dv.data(), f.e.row(i), d);
      }
      // softmax backward: ds_i = alpha_i (dalpha_i - sum_j alpha_j dalpha_j)
      double mixed = 0.0;
      for (std::size_t i = 0; i < n; ++i) mixed += f.alpha[i] * dalpha[i];

      // Accumulate sparse W-row gradients (a path may appear repeatedly in
      // one script, so rows are deduplicated through a local index map).
      touched.clear();
      touched_grads.clear();
      std::unordered_map<std::int32_t, std::size_t> row_slot;
      for (std::size_t i = 0; i < n; ++i) {
        const double ds = f.alpha[i] * (dalpha[i] - mixed);  // d(score_i)
        const double* erow = f.e.row(i);
        const std::int32_t row = f.ids[i];
        auto [it, fresh] = row_slot.try_emplace(row, touched.size());
        if (fresh) {
          touched.push_back(row);
          touched_grads.resize(touched_grads.size() + d, 0.0);
        }
        double* grow = touched_grads.data() + it->second * d;
        for (std::size_t k = 0; k < d; ++k) {
          // score_i = e_i · a  →  da += ds * e_i ; de_i += ds * a.
          ga[k] += ds * erow[k];
          const double de = f.alpha[i] * dv[k] + ds * attn_[k];
          // e = tanh(w) → dw = (1 - e^2) de.
          grow[k] += (1.0 - erow[k] * erow[k]) * de;
        }
      }

      for (std::size_t t2 = 0; t2 < touched.size(); ++t2) {
        const auto row = static_cast<std::size_t>(touched[t2]);
        adam_apply(w_.row(row), touched_grads.data() + t2 * d, aw, row * d, d);
      }
      adam_apply(attn_.data(), ga.data(), aa, 0, attn_.size());
      adam_apply(u_.data().data(), gu.data(), au, 0, gu.size());
      adam_apply(bias_.data(), gb.data(), ab, 0, gb.size());
    }
    last_epoch_loss = counted > 0 ? epoch_loss / static_cast<double>(counted)
                                  : 0.0;
  }
  trained_ = true;
  return last_epoch_loss;
}

double AttentionModel::predict_malicious(
    const std::vector<std::int32_t>& path_ids) const {
  return forward(path_ids).p_malicious;
}

std::vector<double> AttentionModel::path_embedding(
    std::int32_t path_id) const {
  const auto d = static_cast<std::size_t>(cfg_.embedding_dim);
  std::vector<double> e(d, 0.0);
  if (path_id < 0 || static_cast<std::size_t>(path_id) >= vocab_size_)
    return e;
  const double* row = w_.row(static_cast<std::size_t>(path_id));
  for (std::size_t k = 0; k < d; ++k) e[k] = std::tanh(row[k]);
  return e;
}

}  // namespace jsrev::ml
