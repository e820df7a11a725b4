// Car-level congestion and position estimation for railway trips from
// Bluetooth RSSI among smartphones — reproduction of paper Sec. IV.B
// (ref [65]).
//
// Physical model: a train of connected cars; inter-car doors attenuate the
// signal heavily (the effect the method exploits for car-level
// positioning), human bodies attenuate proportionally to the crowd the
// signal crosses, and log-normal shadowing perturbs every measurement.
//
// Estimation follows the paper's structure: likelihood functions for
// (a) which car a user is in, from RSSI to reference nodes with known
// positions, and (b) the car's congestion level, by majority voting of
// per-user local estimates weighted by the reliability (posterior
// confidence) of the position estimate.
//
// Cost: train() and estimate() bucket a scenario's users by estimated car
// once, and one feature routine reads only the user's own bucket, so a
// user's features cost O(users in its car) rather than O(all users).  Peer
// order within a bucket is ascending user index, which keeps the median
// and moment sums, and so every estimate, bit-identical to a full scan.
#pragma once

#include <vector>

#include "common/confusion.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "ml/gaussian_nb.hpp"

namespace zeiot::sensing::rssi {

/// Congestion levels of the paper: low / medium / high.
enum class Congestion { Low = 0, Medium = 1, High = 2 };

struct TrainConfig {
  int num_cars = 3;
  double car_length_m = 20.0;
  double car_width_m = 3.0;
  /// Mean passengers per car by congestion level.
  double people_low = 12.0;
  double people_medium = 40.0;
  double people_high = 85.0;
  /// Fraction of passengers contributing smartphone measurements — drawn
  /// per trip from [user_fraction_min, user_fraction_max]: the estimator
  /// cannot assume how many riders run the app.
  double user_fraction_min = 0.18;
  double user_fraction_max = 0.30;
  /// BLE radio model.
  double tx_power_dbm = 0.0;
  double path_loss_exp = 2.2;
  double loss_1m_db = 40.0;
  double door_loss_db = 8.0;
  /// Per-person body attenuation along the crossed crowd (dB per person
  /// within the first Fresnel corridor, approximated by crowd density).
  double body_loss_db = 2.2;
  double shadowing_sigma_db = 6.0;
  /// Per-smartphone calibration spread (tx power + rx gain differences
  /// between phone models), std dev in dB.
  double device_sigma_db = 2.5;
  /// Probability that a given reference beacon is heard at all during a
  /// user's scan window (BLE scans are sparse and lossy); misses read as
  /// rssi_floor_dbm and are skipped by the estimator.
  double measurement_prob = 0.8;
  /// Reference nodes per car (mounted at known positions).
  int refs_per_car = 2;
  double rssi_floor_dbm = -100.0;
};

/// One simulated trip snapshot.
struct TrainScenario {
  std::vector<Congestion> car_congestion;   // per car
  std::vector<int> people_per_car;
  std::vector<Point2D> user_positions;      // measuring users only
  std::vector<int> user_car;                // ground-truth car per user
  /// user x ref RSSI matrix (dBm).
  std::vector<std::vector<double>> user_ref_rssi;
  /// user x user RSSI matrix (dBm, symmetric, diagonal at floor).
  std::vector<std::vector<double>> user_user_rssi;
  std::vector<Point2D> ref_positions;
  std::vector<int> ref_car;
};

/// Generates a scenario with the given per-car congestion levels.
TrainScenario simulate_trip(const TrainConfig& cfg,
                            const std::vector<Congestion>& levels, Rng& rng);

struct PositionEstimate {
  int car = 0;
  double confidence = 0.0;  // posterior probability of the chosen car
};

/// Car-level position posterior for each user from reference RSSI, using a
/// Gaussian likelihood around the expected RSSI per candidate car.
std::vector<PositionEstimate> estimate_positions(const TrainConfig& cfg,
                                                 const TrainScenario& sc);

/// Trains per-level likelihood functions for congestion from features of
/// simulated trips (the paper builds them from preliminary experiments).
class CongestionEstimator {
 public:
  explicit CongestionEstimator(TrainConfig cfg);

  /// Generates `trips_per_level` training trips per congestion level and
  /// fits the likelihood model.
  void train(int trips_per_level, Rng& rng);

  /// Estimates each car's congestion by reliability-weighted majority
  /// voting over the users assigned to it.  Returns one level per car
  /// (cars with no users fall back to the global prior = Medium).
  std::vector<Congestion> estimate(const TrainScenario& sc,
                                   const std::vector<PositionEstimate>& pos) const;

 private:
  TrainConfig cfg_;
  ml::GaussianNaiveBayes nb_;
  bool trained_ = false;
};

struct TrainEvalResult {
  double position_accuracy = 0.0;
  ConfusionMatrix congestion_confusion{3};
  double congestion_macro_f1 = 0.0;
};

/// End-to-end evaluation over `num_trips` random trips with random per-car
/// congestion levels.
TrainEvalResult evaluate_train_pipeline(const TrainConfig& cfg, int train_trips,
                                        int num_trips, Rng& rng);

}  // namespace zeiot::sensing::rssi
