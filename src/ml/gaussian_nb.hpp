// Gaussian naive Bayes — the likelihood-function estimator style used by the
// paper's congestion/position pipeline ("our method is based on likelihood
// functions ... built according to our preliminary experiments").
#pragma once

#include "ml/features.hpp"

namespace zeiot::ml {

class GaussianNaiveBayes {
 public:
  /// Variance floor avoids degenerate spikes on (near-)constant features.
  explicit GaussianNaiveBayes(double var_floor = 1e-6);

  void fit(const FeatureMatrix& x, const LabelVector& y);

  /// Log p(class) + sum_j log N(row_j; mu_cj, var_cj), per class.
  std::vector<double> log_likelihoods(const std::vector<double>& row) const;
  int predict(const std::vector<double>& row) const;
  double score(const FeatureMatrix& x, const LabelVector& y) const;

  int num_classes() const { return num_classes_; }

 private:
  double var_floor_;
  int num_classes_ = 0;
  std::size_t dim_ = 0;
  std::vector<double> log_prior_;  // (K)
  std::vector<double> mean_;       // (K, D)
  std::vector<double> var_;        // (K, D)
  std::vector<double> log_norm_;   // (K, D) log(2 pi var), fixed at fit
};

}  // namespace zeiot::ml
