#include "sensing/rssi/train_car.hpp"

#include <algorithm>
#include <cmath>

namespace zeiot::sensing::rssi {

namespace {

/// Number of inter-car doors between positions a and b.
int doors_between(const TrainConfig& cfg, double ax, double bx) {
  const int car_a = std::clamp(static_cast<int>(ax / cfg.car_length_m), 0,
                               cfg.num_cars - 1);
  const int car_b = std::clamp(static_cast<int>(bx / cfg.car_length_m), 0,
                               cfg.num_cars - 1);
  return std::abs(car_a - car_b);
}

int car_of(const TrainConfig& cfg, double x) {
  return std::clamp(static_cast<int>(x / cfg.car_length_m), 0,
                    cfg.num_cars - 1);
}

/// Deterministic expected RSSI between two points given crowd densities.
double expected_rssi(const TrainConfig& cfg, Point2D a, Point2D b,
                     const std::vector<double>& density_per_car) {
  const double d = std::max(0.3, distance(a, b));
  double rssi = cfg.tx_power_dbm - cfg.loss_1m_db -
                10.0 * cfg.path_loss_exp * std::log10(d);
  rssi -= cfg.door_loss_db * doors_between(cfg, a.x, b.x);
  // Body attenuation: people encountered along the path, approximated by
  // the mean density of the traversed cars times the in-car path length.
  const int ca = car_of(cfg, a.x);
  const int cb = car_of(cfg, b.x);
  const int lo = std::min(ca, cb), hi = std::max(ca, cb);
  double density = 0.0;
  for (int c = lo; c <= hi; ++c)
    density += density_per_car[static_cast<std::size_t>(c)];
  density /= static_cast<double>(hi - lo + 1);
  // Effective crossed-people count grows with distance and density.
  const double crossed = density * d * cfg.car_width_m * 0.35;
  rssi -= cfg.body_loss_db * crossed;
  return std::max(rssi, cfg.rssi_floor_dbm);
}

double people_for_level(const TrainConfig& cfg, Congestion lvl) {
  switch (lvl) {
    case Congestion::Low: return cfg.people_low;
    case Congestion::Medium: return cfg.people_medium;
    case Congestion::High: return cfg.people_high;
  }
  return cfg.people_medium;
}

/// Calls fn(user, features) for every user in index order; each user's
/// crowd proxies read only its own estimated car's bucket.
template <typename Fn>
void for_each_user_features(const TrainScenario& sc,
                            const std::vector<PositionEstimate>& pos,
                            int num_cars, Fn&& fn) {
  ZEIOT_CHECK_MSG(pos.size() == sc.user_positions.size(),
                  "one position estimate per user required");
  std::vector<std::vector<std::size_t>> by_car(
      static_cast<std::size_t>(num_cars));
  for (std::size_t u = 0; u < pos.size(); ++u)
    by_car[static_cast<std::size_t>(pos[u].car)].push_back(u);
  std::vector<double> readings, f;
  for (std::size_t user = 0; user < pos.size(); ++user) {
    // Crowd proxies local to the user's estimated car: attenuation among
    // peers in the same estimated car plus peer count.  Peers whose own
    // position estimate is shaky are excluded, and the median (not the
    // mean) is used, so a misplaced cross-door peer with a hugely
    // attenuated link cannot poison the feature.
    const int car = pos[user].car;
    const auto& peers = by_car[static_cast<std::size_t>(car)];
    readings.clear();
    for (const std::size_t v : peers) {
      if (v == user || pos[v].confidence < 0.6) continue;
      readings.push_back(sc.user_user_rssi[user][v]);
    }
    // No same-car peer is itself evidence of an *empty* car, so the
    // sentinel must resemble an unattenuated close-range reading, not a
    // crowded one.
    double mean = -45.0;
    double var = 0.0;
    if (!readings.empty()) {
      std::sort(readings.begin(), readings.end());
      mean = readings[readings.size() / 2];  // median
      double s = 0.0, s2 = 0.0;
      for (double r : readings) {
        s += r;
        s2 += r * r;
      }
      const double m = s / static_cast<double>(readings.size());
      var = std::max(0.0, s2 / static_cast<double>(readings.size()) - m * m);
    }
    // Reference attenuation within the estimated car (skip scan misses).
    double ref_sum = 0.0;
    int ref_n = 0;
    for (std::size_t r = 0; r < sc.ref_positions.size(); ++r) {
      if (sc.ref_car[r] != car) continue;
      if (sc.user_ref_rssi[user][r] <= -99.0) continue;  // scan miss
      ref_sum += sc.user_ref_rssi[user][r];
      ++ref_n;
    }
    const double ref_mean = ref_n > 0 ? ref_sum / ref_n : -60.0;
    f.assign({mean, std::sqrt(var), static_cast<double>(peers.size() - 1),
              ref_mean});
    fn(user, f);
  }
}

}  // namespace

TrainScenario simulate_trip(const TrainConfig& cfg,
                            const std::vector<Congestion>& levels, Rng& rng) {
  ZEIOT_CHECK_MSG(static_cast<int>(levels.size()) == cfg.num_cars,
                  "one congestion level per car required");
  TrainScenario sc;
  sc.car_congestion = levels;

  std::vector<double> density(static_cast<std::size_t>(cfg.num_cars));
  for (int c = 0; c < cfg.num_cars; ++c) {
    const double mean = people_for_level(cfg, levels[static_cast<std::size_t>(c)]);
    const int n = std::max(1, rng.poisson(mean));
    sc.people_per_car.push_back(n);
    density[static_cast<std::size_t>(c)] =
        static_cast<double>(n) / (cfg.car_length_m * cfg.car_width_m);
  }

  // Users: an unknown fraction of the passengers of each car.
  const double user_fraction =
      rng.uniform(cfg.user_fraction_min, cfg.user_fraction_max);
  for (int c = 0; c < cfg.num_cars; ++c) {
    const int users = std::max(
        1, static_cast<int>(std::lround(user_fraction *
                                        sc.people_per_car[static_cast<std::size_t>(c)])));
    for (int u = 0; u < users; ++u) {
      sc.user_positions.push_back(
          {cfg.car_length_m * c + rng.uniform(0.5, cfg.car_length_m - 0.5),
           rng.uniform(0.3, cfg.car_width_m - 0.3)});
      sc.user_car.push_back(c);
    }
  }
  // Per-device calibration offsets (phone model diversity), unknown to the
  // estimators.
  std::vector<double> device_offset(sc.user_positions.size());
  for (double& o : device_offset) o = rng.normal(0.0, cfg.device_sigma_db);

  // Reference nodes at fixed known positions in every car.
  for (int c = 0; c < cfg.num_cars; ++c) {
    for (int r = 0; r < cfg.refs_per_car; ++r) {
      const double fx = (static_cast<double>(r) + 1.0) /
                        (static_cast<double>(cfg.refs_per_car) + 1.0);
      sc.ref_positions.push_back(
          {cfg.car_length_m * c + fx * cfg.car_length_m, cfg.car_width_m / 2.0});
      sc.ref_car.push_back(c);
    }
  }

  const std::size_t nu = sc.user_positions.size();
  const std::size_t nr = sc.ref_positions.size();
  sc.user_ref_rssi.assign(nu, std::vector<double>(nr, cfg.rssi_floor_dbm));
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t r = 0; r < nr; ++r) {
      if (!rng.bernoulli(cfg.measurement_prob)) continue;  // scan miss
      const double mu = expected_rssi(cfg, sc.user_positions[u],
                                      sc.ref_positions[r], density);
      sc.user_ref_rssi[u][r] =
          std::max(cfg.rssi_floor_dbm,
                   mu + device_offset[u] +
                       rng.normal(0.0, cfg.shadowing_sigma_db));
    }
  }
  sc.user_user_rssi.assign(nu, std::vector<double>(nu, cfg.rssi_floor_dbm));
  for (std::size_t a = 0; a < nu; ++a) {
    for (std::size_t b = a + 1; b < nu; ++b) {
      const double mu = expected_rssi(cfg, sc.user_positions[a],
                                      sc.user_positions[b], density);
      const double v =
          std::max(cfg.rssi_floor_dbm,
                   mu + 0.5 * (device_offset[a] + device_offset[b]) +
                       rng.normal(0.0, cfg.shadowing_sigma_db));
      sc.user_user_rssi[a][b] = v;
      sc.user_user_rssi[b][a] = v;
    }
  }
  return sc;
}

std::vector<PositionEstimate> estimate_positions(const TrainConfig& cfg,
                                                 const TrainScenario& sc) {
  // Expected reference RSSI assuming medium density everywhere (the
  // estimator must work without knowing the congestion).
  std::vector<double> nominal_density(
      static_cast<std::size_t>(cfg.num_cars),
      cfg.people_medium / (cfg.car_length_m * cfg.car_width_m));

  std::vector<PositionEstimate> out;
  const double sigma = cfg.shadowing_sigma_db * 1.6;  // model+shadowing slack
  for (std::size_t u = 0; u < sc.user_positions.size(); ++u) {
    std::vector<double> log_lik(static_cast<std::size_t>(cfg.num_cars), 0.0);
    for (int c = 0; c < cfg.num_cars; ++c) {
      // Candidate position: centre of car c (car-level hypothesis).
      const Point2D hyp{cfg.car_length_m * (static_cast<double>(c) + 0.5),
                        cfg.car_width_m / 2.0};
      double ll = 0.0;
      for (std::size_t r = 0; r < sc.ref_positions.size(); ++r) {
        if (sc.user_ref_rssi[u][r] <= cfg.rssi_floor_dbm) continue;  // missed
        const double mu =
            expected_rssi(cfg, hyp, sc.ref_positions[r], nominal_density);
        const double d = sc.user_ref_rssi[u][r] - mu;
        ll += -0.5 * d * d / (sigma * sigma);
      }
      log_lik[static_cast<std::size_t>(c)] = ll;
    }
    const double mx = *std::max_element(log_lik.begin(), log_lik.end());
    double denom = 0.0;
    for (double& v : log_lik) {
      v = std::exp(v - mx);
      denom += v;
    }
    PositionEstimate pe;
    pe.car = static_cast<int>(
        std::max_element(log_lik.begin(), log_lik.end()) - log_lik.begin());
    pe.confidence = log_lik[static_cast<std::size_t>(pe.car)] / denom;
    out.push_back(pe);
  }
  return out;
}

CongestionEstimator::CongestionEstimator(TrainConfig cfg) : cfg_(cfg) {}

void CongestionEstimator::train(int trips_per_level, Rng& rng) {
  ZEIOT_CHECK_MSG(trips_per_level > 0, "need training trips");
  ml::FeatureMatrix x;
  ml::LabelVector y;
  for (int lvl = 0; lvl < 3; ++lvl) {
    for (int t = 0; t < trips_per_level; ++t) {
      std::vector<Congestion> levels(static_cast<std::size_t>(cfg_.num_cars),
                                     static_cast<Congestion>(lvl));
      const TrainScenario sc = simulate_trip(cfg_, levels, rng);
      const auto pos = estimate_positions(cfg_, sc);
      for_each_user_features(sc, pos, cfg_.num_cars,
                             [&](std::size_t, const std::vector<double>& f) {
                               x.push_back(f);
                               y.push_back(lvl);
                             });
    }
  }
  nb_.fit(x, y);
  trained_ = true;
}

std::vector<Congestion> CongestionEstimator::estimate(
    const TrainScenario& sc, const std::vector<PositionEstimate>& pos) const {
  ZEIOT_CHECK_MSG(trained_, "CongestionEstimator::train first");
  std::vector<std::vector<double>> votes(
      static_cast<std::size_t>(cfg_.num_cars), std::vector<double>(3, 0.0));
  for_each_user_features(
      sc, pos, cfg_.num_cars, [&](std::size_t u, const std::vector<double>& f) {
        const int lvl = nb_.predict(f);
        // Reliability-weighted vote (paper: weighted majority voting by the
        // reliability of the position estimate).
        votes[static_cast<std::size_t>(pos[u].car)]
             [static_cast<std::size_t>(lvl)] += pos[u].confidence;
      });
  std::vector<Congestion> out;
  for (int c = 0; c < cfg_.num_cars; ++c) {
    const auto& v = votes[static_cast<std::size_t>(c)];
    const double total = v[0] + v[1] + v[2];
    if (total <= 0.0) {
      out.push_back(Congestion::Medium);  // prior fallback
      continue;
    }
    out.push_back(static_cast<Congestion>(
        std::max_element(v.begin(), v.end()) - v.begin()));
  }
  return out;
}

TrainEvalResult evaluate_train_pipeline(const TrainConfig& cfg,
                                        int train_trips, int num_trips,
                                        Rng& rng) {
  ZEIOT_CHECK_MSG(num_trips > 0, "need evaluation trips");
  CongestionEstimator est(cfg);
  est.train(train_trips, rng);

  TrainEvalResult res;
  std::size_t pos_correct = 0, pos_total = 0;
  for (int t = 0; t < num_trips; ++t) {
    std::vector<Congestion> levels;
    for (int c = 0; c < cfg.num_cars; ++c) {
      levels.push_back(static_cast<Congestion>(rng.uniform_int(0, 2)));
    }
    const TrainScenario sc = simulate_trip(cfg, levels, rng);
    const auto pos = estimate_positions(cfg, sc);
    for (std::size_t u = 0; u < pos.size(); ++u) {
      ++pos_total;
      if (pos[u].car == sc.user_car[u]) ++pos_correct;
    }
    const auto congestion = est.estimate(sc, pos);
    for (int c = 0; c < cfg.num_cars; ++c) {
      res.congestion_confusion.add(
          static_cast<std::size_t>(levels[static_cast<std::size_t>(c)]),
          static_cast<std::size_t>(congestion[static_cast<std::size_t>(c)]));
    }
  }
  res.position_accuracy =
      static_cast<double>(pos_correct) / static_cast<double>(pos_total);
  res.congestion_macro_f1 = res.congestion_confusion.macro_f1();
  return res;
}

}  // namespace zeiot::sensing::rssi
