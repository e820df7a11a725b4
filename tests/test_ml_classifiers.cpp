#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/gaussian_nb.hpp"
#include "ml/knn.hpp"
#include "ml/standardize.hpp"

namespace zeiot::ml {
namespace {

/// Three well-separated Gaussian blobs in 4-D.
void make_blobs(std::size_t per_class, std::uint64_t seed, FeatureMatrix& x,
                LabelVector& y, double spread = 0.5) {
  Rng rng(seed);
  const double centers[3][4] = {
      {0.0, 0.0, 0.0, 0.0}, {4.0, 4.0, 0.0, -2.0}, {-4.0, 2.0, 3.0, 1.0}};
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      std::vector<double> row(4);
      for (int j = 0; j < 4; ++j) {
        row[static_cast<std::size_t>(j)] =
            centers[c][j] + rng.normal(0.0, spread);
      }
      x.push_back(std::move(row));
      y.push_back(c);
    }
  }
}

TEST(Standardizer, ZeroMeanUnitVariance) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(100, 1, x, y);
  Standardizer s;
  s.fit(x);
  const auto xt = s.transform(x);
  for (std::size_t j = 0; j < 4; ++j) {
    double mean = 0.0, var = 0.0;
    for (const auto& row : xt) mean += row[j];
    mean /= static_cast<double>(xt.size());
    for (const auto& row : xt) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<double>(xt.size());
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-9);
  }
}

TEST(Standardizer, ConstantColumnPassesThrough) {
  FeatureMatrix x{{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}};
  Standardizer s;
  s.fit(x);
  const auto t = s.transform(x[0]);
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // centred but not scaled to infinity
  EXPECT_TRUE(std::isfinite(t[1]));
}

TEST(Standardizer, RejectsMisuse) {
  Standardizer s;
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), Error);
  EXPECT_THROW(s.fit({}), Error);
  s.fit({{1.0, 2.0}});
  EXPECT_THROW(s.transform(std::vector<double>{1.0}), Error);
}

TEST(Knn, SeparableBlobsPerfect) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(60, 2, x, y, 0.3);
  KnnClassifier knn(5);
  knn.fit(x, y);
  EXPECT_GT(knn.score(x, y), 0.99);
}

TEST(Knn, HoldOutGeneralization) {
  FeatureMatrix xtr, xte;
  LabelVector ytr, yte;
  make_blobs(80, 3, xtr, ytr, 0.6);
  make_blobs(30, 4, xte, yte, 0.6);
  KnnClassifier knn(7);
  knn.fit(xtr, ytr);
  EXPECT_GT(knn.score(xte, yte), 0.95);
}

TEST(Knn, KOneMemorizes) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(20, 5, x, y, 2.5);  // overlapping blobs
  KnnClassifier knn(1);
  knn.fit(x, y);
  EXPECT_DOUBLE_EQ(knn.score(x, y), 1.0);  // 1-NN on training data is exact
}

TEST(Knn, DistanceTiesBreakByTrainingIndex) {
  // Regression: neighbor selection used to sort (distance, label) pairs
  // with an unstable partial sort, so equidistant training points entered
  // the k-set in label (or implementation-defined) order.  Ties must break
  // by training index: the four points below are all at distance 1 from
  // the query, so k=2 selects indices 0 and 1 — both label 1 — even though
  // label-ordered selection would have picked the two label-0 points.
  FeatureMatrix x{{1.0}, {-1.0}, {1.0}, {-1.0}};
  LabelVector y{1, 1, 0, 0};
  KnnClassifier knn(2);
  knn.fit(x, y);
  EXPECT_EQ(knn.predict({0.0}), 1);
}

TEST(Knn, RejectsMisuse) {
  KnnClassifier knn(3);
  EXPECT_THROW(knn.predict({1.0}), Error);
  EXPECT_THROW(KnnClassifier(0), Error);
  FeatureMatrix x{{1.0}};
  LabelVector y{0};
  knn.fit(x, y);
  EXPECT_THROW(knn.predict({1.0, 2.0}), Error);
}

TEST(Knn, RejectsNonFiniteFeatures) {
  KnnClassifier knn(1);
  FeatureMatrix bad{{0.0, 1.0}, {std::numeric_limits<double>::quiet_NaN(), 2.0}};
  EXPECT_THROW(knn.fit(bad, {0, 1}), Error);
  knn.fit({{0.0, 1.0}, {1.0, 2.0}}, {0, 1});
  EXPECT_THROW(knn.predict({std::numeric_limits<double>::infinity(), 0.0}),
               Error);
}

/// Reference kNN: the full-scan partial_sort predict the flat
/// early-abandon search replaced, kept verbatim as the tie contract.
int reference_knn_predict(const FeatureMatrix& x, const LabelVector& y, int k_,
                          const std::vector<double>& row) {
  const int num_classes_ = *std::max_element(y.begin(), y.end()) + 1;
  std::vector<std::pair<double, std::size_t>> dist;  // (d^2, index)
  dist.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      const double dv = row[j] - x[i][j];
      d2 += dv * dv;
    }
    dist.emplace_back(d2, i);
  }
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_),
                                              dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                    dist.end());
  std::vector<int> votes(static_cast<std::size_t>(num_classes_), 0);
  std::vector<double> vote_dist(static_cast<std::size_t>(num_classes_), 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const auto label = static_cast<std::size_t>(y[dist[i].second]);
    ++votes[label];
    vote_dist[label] += dist[i].first;
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

// The flat early-abandon search must predict exactly what the full scan
// does, on data built to stress it: duplicated training rows, small-integer
// features (so exact distance ties are common), every k from 1 past n,
// dimensions below, at and above the abandon block, and row counts that
// leave a partial group of four (n = 2 and n = 23).
TEST(Knn, EarlyAbandonMatchesFullScanReference) {
  const std::size_t block = KnnClassifier::kAbandonBlock;
  Rng rng(31);
  std::size_t queries = 0;
  for (const std::size_t rows : {std::size_t{2}, std::size_t{23}}) {
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3}, block - 1,
                                  block, block + 1, 2 * block + 5}) {
      for (const bool integral : {true, false}) {
        const auto draw = [&] {
          return integral ? static_cast<double>(rng.uniform_int(-2, 2))
                          : rng.normal(0.0, 1.0);
        };
        FeatureMatrix x;
        LabelVector y;
        for (std::size_t i = 0; i < rows; ++i) {
          if (i % 4 == 3) {
            x.push_back(x[i - 2]);  // exact duplicate row, maybe relabelled
          } else {
            std::vector<double> row(dim);
            for (double& v : row) v = draw();
            x.push_back(std::move(row));
          }
          y.push_back(static_cast<int>(rng.uniform_int(0, 3)));
        }
        const int n = static_cast<int>(rows);
        for (const int k : {1, 2, 3, 5, n, n + 2}) {
          KnnClassifier knn(k);
          knn.fit(x, y);
          for (int q = 0; q < 100; ++q) {
            std::vector<double> row(dim);
            if (q % 5 == 0) {
              row = x[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
            } else {
              for (double& v : row) v = draw();
            }
            ASSERT_EQ(knn.predict(row), reference_knn_predict(x, y, k, row))
                << "rows=" << rows << " dim=" << dim
                << " integral=" << integral << " k=" << k << " query=" << q;
            ++queries;
          }
        }
      }
    }
  }
  EXPECT_EQ(queries, 14400u);
}

TEST(GaussianNb, LearnsBlobs) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(80, 10, x, y, 0.5);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_GT(nb.score(x, y), 0.97);
}

TEST(GaussianNb, LogLikelihoodsOrdered) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(50, 11, x, y, 0.4);
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  // A point at a class centre must prefer that class.
  const auto ll = nb.log_likelihoods({4.0, 4.0, 0.0, -2.0});
  EXPECT_GT(ll[1], ll[0]);
  EXPECT_GT(ll[1], ll[2]);
}

TEST(GaussianNb, PriorsReflectImbalance) {
  FeatureMatrix x;
  LabelVector y;
  // Heavily imbalanced identical-feature classes: prior must dominate.
  for (int i = 0; i < 95; ++i) {
    x.push_back({0.0});
    y.push_back(0);
  }
  for (int i = 0; i < 5; ++i) {
    x.push_back({0.0});
    y.push_back(1);
  }
  GaussianNaiveBayes nb;
  nb.fit(x, y);
  EXPECT_EQ(nb.predict({0.0}), 0);
}

TEST(GaussianNb, RejectsMissingClass) {
  FeatureMatrix x{{0.0}, {1.0}};
  LabelVector y{0, 2};  // class 1 absent
  GaussianNaiveBayes nb;
  EXPECT_THROW(nb.fit(x, y), Error);
}

TEST(GaussianNb, VarianceFloorPreventsDegeneracy) {
  FeatureMatrix x{{1.0}, {1.0}, {2.0}, {2.0}};
  LabelVector y{0, 0, 1, 1};
  GaussianNaiveBayes nb;  // zero within-class variance
  nb.fit(x, y);
  EXPECT_EQ(nb.predict({1.0}), 0);
  EXPECT_EQ(nb.predict({2.0}), 1);
}

// log_likelihoods reads log(2 pi v) precomputed at fit; the sum must stay
// bit-equal to the inline formula over the same per-class moments.
TEST(GaussianNb, LogLikelihoodsBitEqualInlineFormula) {
  FeatureMatrix x;
  LabelVector y;
  make_blobs(40, 15, x, y, 0.7);
  x.push_back({0.0, 0.0, 0.0, 0.0});  // zero-spread class 3: floored variance
  x.push_back({0.0, 0.0, 0.0, 0.0});
  y.push_back(3);
  y.push_back(3);
  const double var_floor = 1e-6;
  GaussianNaiveBayes nb(var_floor);
  nb.fit(x, y);

  // The fit's moments, accumulated in the fit's order.
  const std::size_t k = 4, d = 4;
  std::vector<std::size_t> counts(k, 0);
  std::vector<double> mean(k * d, 0.0), var(k * d, 0.0), log_prior(k);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto c = static_cast<std::size_t>(y[i]);
    ++counts[c];
    for (std::size_t j = 0; j < d; ++j) mean[c * d + j] += x[i][j];
  }
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < d; ++j)
      mean[c * d + j] /= static_cast<double>(counts[c]);
    log_prior[c] = std::log(static_cast<double>(counts[c]) /
                            static_cast<double>(x.size()));
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto c = static_cast<std::size_t>(y[i]);
    for (std::size_t j = 0; j < d; ++j) {
      const double dv = x[i][j] - mean[c * d + j];
      var[c * d + j] += dv * dv;
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < d; ++j) {
      var[c * d + j] = std::max(
          var_floor, var[c * d + j] / static_cast<double>(counts[c]));
    }
  }

  Rng rng(16);
  for (int q = 0; q < 500; ++q) {
    std::vector<double> row(d);
    for (double& v : row) v = rng.normal(0.0, 4.0);
    const auto ll = nb.log_likelihoods(row);
    ASSERT_EQ(ll.size(), k);
    for (std::size_t c = 0; c < k; ++c) {
      double acc = log_prior[c];
      for (std::size_t j = 0; j < d; ++j) {
        const double v = var[c * d + j];
        const double dv = row[j] - mean[c * d + j];
        acc += -0.5 * (std::log(2.0 * M_PI * v) + dv * dv / v);
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ll[c]),
                std::bit_cast<std::uint64_t>(acc))
          << "query " << q << " class " << c;
    }
  }
}

TEST(Classifiers, AgreeOnEasyProblem) {
  FeatureMatrix xtr, xte;
  LabelVector ytr, yte;
  make_blobs(60, 12, xtr, ytr, 0.3);
  make_blobs(20, 13, xte, yte, 0.3);
  KnnClassifier knn(3);
  knn.fit(xtr, ytr);
  GaussianNaiveBayes nb;
  nb.fit(xtr, ytr);
  int agree = 0;
  for (std::size_t i = 0; i < xte.size(); ++i) {
    if (knn.predict(xte[i]) == nb.predict(xte[i])) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(xte.size()), 0.95);
}

}  // namespace
}  // namespace zeiot::ml
