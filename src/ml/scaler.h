// Min-max feature normalization (paper Eq. 6).
#pragma once

#include <algorithm>
#include <vector>

#include "ml/matrix.h"
#include "ml/model_view_ops.h"

namespace jsrev::ml {

/// Per-feature min-max scaler fit on training data and applied to any row.
class MinMaxScaler {
 public:
  void fit(const Matrix& x) {
    const std::size_t d = x.cols();
    min_.assign(d, 0.0);
    max_.assign(d, 0.0);
    if (x.rows() == 0) return;
    for (std::size_t f = 0; f < d; ++f) {
      min_[f] = max_[f] = x(0, f);
    }
    for (std::size_t i = 1; i < x.rows(); ++i) {
      const double* row = x.row(i);
      for (std::size_t f = 0; f < d; ++f) {
        min_[f] = std::min(min_[f], row[f]);
        max_[f] = std::max(max_[f], row[f]);
      }
    }
  }

  /// Scales through the shared raw-pointer kernel (the same code a mapped
  /// ModelView runs); unseen values may exceed the fit range and are
  /// clamped to [0, 1].
  void transform_row(double* row) const {
    scale_row(row, min_.data(), max_.data(), min_.size());
  }

  void transform(Matrix& x) const {
    for (std::size_t i = 0; i < x.rows(); ++i) transform_row(x.row(i));
  }

  Matrix fit_transform(Matrix x) {
    fit(x);
    transform(x);
    return x;
  }

  // Flat parameter access for the artifact writer.
  const std::vector<double>& fitted_min() const { return min_; }
  const std::vector<double>& fitted_max() const { return max_; }

 private:
  std::vector<double> min_;
  std::vector<double> max_;
};

}  // namespace jsrev::ml
