#include "ml/gaussian_nb.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace zeiot::ml {

GaussianNaiveBayes::GaussianNaiveBayes(double var_floor)
    : var_floor_(var_floor) {
  ZEIOT_CHECK_MSG(var_floor > 0.0, "variance floor must be > 0");
}

void GaussianNaiveBayes::fit(const FeatureMatrix& x, const LabelVector& y) {
  ZEIOT_CHECK_MSG(!x.empty() && x.size() == y.size(), "aligned non-empty x/y");
  dim_ = x.front().size();
  int mx = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ZEIOT_CHECK_MSG(x[i].size() == dim_, "ragged feature matrix");
    ZEIOT_CHECK_MSG(y[i] >= 0, "labels must be >= 0");
    mx = std::max(mx, y[i]);
  }
  num_classes_ = mx + 1;
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<std::size_t> counts(k, 0);
  mean_.assign(k * dim_, 0.0);
  var_.assign(k * dim_, 0.0);
  log_prior_.assign(k, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto c = static_cast<std::size_t>(y[i]);
    ++counts[c];
    for (std::size_t j = 0; j < dim_; ++j) mean_[c * dim_ + j] += x[i][j];
  }
  for (std::size_t c = 0; c < k; ++c) {
    ZEIOT_CHECK_MSG(counts[c] > 0, "class " << c << " has no training samples");
    for (std::size_t j = 0; j < dim_; ++j)
      mean_[c * dim_ + j] /= static_cast<double>(counts[c]);
    log_prior_[c] = std::log(static_cast<double>(counts[c]) /
                             static_cast<double>(x.size()));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto c = static_cast<std::size_t>(y[i]);
    for (std::size_t j = 0; j < dim_; ++j) {
      const double d = x[i][j] - mean_[c * dim_ + j];
      var_[c * dim_ + j] += d * d;
    }
  }
  log_norm_.assign(k * dim_, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < dim_; ++j) {
      var_[c * dim_ + j] = std::max(
          var_floor_, var_[c * dim_ + j] / static_cast<double>(counts[c]));
      log_norm_[c * dim_ + j] = std::log(2.0 * M_PI * var_[c * dim_ + j]);
    }
  }
}

std::vector<double> GaussianNaiveBayes::log_likelihoods(
    const std::vector<double>& row) const {
  ZEIOT_CHECK_MSG(num_classes_ > 0, "predict before fit");
  ZEIOT_CHECK_MSG(row.size() == dim_, "feature count mismatch");
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> ll(k);
  for (std::size_t c = 0; c < k; ++c) {
    double acc = log_prior_[c];
    for (std::size_t j = 0; j < dim_; ++j) {
      const double v = var_[c * dim_ + j];
      const double d = row[j] - mean_[c * dim_ + j];
      acc += -0.5 * (log_norm_[c * dim_ + j] + d * d / v);
    }
    ll[c] = acc;
  }
  return ll;
}

int GaussianNaiveBayes::predict(const std::vector<double>& row) const {
  const auto ll = log_likelihoods(row);
  return static_cast<int>(std::max_element(ll.begin(), ll.end()) - ll.begin());
}

double GaussianNaiveBayes::score(const FeatureMatrix& x,
                                 const LabelVector& y) const {
  ZEIOT_CHECK_MSG(x.size() == y.size() && !x.empty(), "aligned non-empty x/y");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace zeiot::ml
