// k-nearest-neighbour classifier (Euclidean), used by the CSI localization
// pipeline where the paper's system matches captured feedback frames against
// labelled recordings.
//
// The training set is one row-major buffer.  predict scores rows four at a
// time (four independent add chains) and drops a group once every partial
// d² — checked each kAbandonBlock dimensions — exceeds the k-th best.  Each
// row is summed in dimension order, so every completed d² is bit-exact, and
// an abandoned row (non-negative terms) could never have entered the set.
// Neighbours are ordered by (d², training index).
#pragma once

#include <cstddef>

#include "ml/features.hpp"

namespace zeiot::ml {

class KnnClassifier {
 public:
  /// Dimensions summed between two early-abandon checks.
  static constexpr std::size_t kAbandonBlock = 16;

  explicit KnnClassifier(int k = 5);

  /// Stores the training set (copies).  Rows must be rectangular and every
  /// feature finite.
  void fit(const FeatureMatrix& x, LabelVector y);

  /// Majority vote among the k nearest training rows; ties break toward the
  /// nearer neighbour set (lower summed distance).  The row must be finite.
  int predict(const std::vector<double>& row) const;

  /// Batch accuracy.
  double score(const FeatureMatrix& x, const LabelVector& y) const;

  int k() const { return k_; }

 private:
  int k_;
  std::size_t dim_ = 0;
  std::vector<double> x_;  // (rows, dim_) row-major
  LabelVector y_;
  int num_classes_ = 0;
};

}  // namespace zeiot::ml
