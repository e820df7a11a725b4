#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace zeiot::ml {

namespace {
bool is_finite(double v) { return std::isfinite(v); }
}  // namespace

KnnClassifier::KnnClassifier(int k) : k_(k) {
  ZEIOT_CHECK_MSG(k > 0, "kNN requires k > 0");
}

void KnnClassifier::fit(const FeatureMatrix& x, LabelVector y) {
  ZEIOT_CHECK_MSG(!x.empty() && x.size() == y.size(),
                  "kNN fit requires aligned non-empty x/y");
  const std::size_t d = x.front().size();
  std::vector<double> flat;
  flat.reserve(x.size() * d);
  int mx = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ZEIOT_CHECK_MSG(x[i].size() == d, "ragged feature matrix");
    ZEIOT_CHECK_MSG(y[i] >= 0, "labels must be >= 0");
    ZEIOT_CHECK_MSG(std::all_of(x[i].begin(), x[i].end(), is_finite),
                    "kNN training row " << i << " has a non-finite feature");
    flat.insert(flat.end(), x[i].begin(), x[i].end());
    mx = std::max(mx, y[i]);
  }
  dim_ = d;
  x_ = std::move(flat);
  y_ = std::move(y);
  num_classes_ = mx + 1;
}

int KnnClassifier::predict(const std::vector<double>& row) const {
  ZEIOT_CHECK_MSG(!y_.empty(), "kNN predict before fit");
  ZEIOT_CHECK_MSG(row.size() == dim_, "feature count mismatch");
  ZEIOT_CHECK_MSG(std::all_of(row.begin(), row.end(), is_finite),
                  "kNN query has a non-finite feature");
  // nearest[] holds the k smallest (d², index) keys so far, ascending; a
  // row ties behind held keys of equal d².  Nothing is abandoned until k
  // keys are held.  A group past the last row repeats it; repeats drop.
  const std::size_t n = y_.size();
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_), n);
  const auto at = [&](std::size_t i) {
    return x_.data() + std::min(i, n - 1) * dim_;
  };
  const auto sq = [](double dv) { return dv * dv; };
  std::vector<std::pair<double, std::size_t>> nearest;
  nearest.reserve(k);
  for (std::size_t i = 0; i < n; i += 4) {
    const double bound = nearest.size() == k
                             ? nearest.back().first
                             : std::numeric_limits<double>::infinity();
    const double *r0 = at(i), *r1 = at(i + 1), *r2 = at(i + 2), *r3 = at(i + 3);
    double d2[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < dim_;) {
      for (const std::size_t end = std::min(dim_, j + kAbandonBlock); j < end;
           ++j) {
        d2[0] += sq(row[j] - r0[j]);
        d2[1] += sq(row[j] - r1[j]);
        d2[2] += sq(row[j] - r2[j]);
        d2[3] += sq(row[j] - r3[j]);
      }
      if (*std::min_element(d2, d2 + 4) > bound) break;
    }
    for (std::size_t g = 0; g < 4 && i + g < n; ++g) {
      if (nearest.size() == k) {
        if (d2[g] >= nearest.back().first) continue;
        nearest.pop_back();
      }
      auto pos = nearest.end();
      while (pos != nearest.begin() && std::prev(pos)->first > d2[g]) --pos;
      nearest.insert(pos, {d2[g], i + g});
    }
  }
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  std::vector<double> vote_dist(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& [d2, i] : nearest) {
    const auto label = static_cast<std::size_t>(y_[i]);
    ++votes[label];
    vote_dist[label] += d2;
  }
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    const auto cc = static_cast<std::size_t>(c);
    const auto cb = static_cast<std::size_t>(best);
    if (votes[cc] > votes[cb] ||
        (votes[cc] == votes[cb] && vote_dist[cc] < vote_dist[cb])) {
      best = c;
    }
  }
  return best;
}

double KnnClassifier::score(const FeatureMatrix& x, const LabelVector& y) const {
  ZEIOT_CHECK_MSG(x.size() == y.size() && !x.empty(),
                  "score requires aligned non-empty x/y");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace zeiot::ml
