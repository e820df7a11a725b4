#include "datagen/temperature_field.hpp"

#include <cmath>

namespace zeiot::datagen {

namespace {

/// Mean temperature of the `k`x`k` region with top-left (y, x) of a
/// row-major map `cols` wide.
double region_mean(const float* map, int cols, int y, int x, int k) {
  double s = 0.0;
  for (int dy = 0; dy < k; ++dy) {
    const float* row = map + static_cast<std::size_t>(y + dy) * cols + x;
    for (int dx = 0; dx < k; ++dx) s += row[dx];
  }
  return s / static_cast<double>(k * k);
}

}  // namespace

TemperatureSample generate_temperature_sample(const TemperatureFieldConfig& cfg,
                                              int t, Rng& rng) {
  ZEIOT_CHECK_MSG(cfg.cols > cfg.region_kernel && cfg.rows > cfg.region_kernel,
                  "grid too small for the region kernel");
  const double day = static_cast<double>(t) * cfg.sample_interval_s / 86400.0;
  // Season: late-August warmth cooling toward late October (~ -6 C drift
  // over the two-month campaign), plus the diurnal cycle.
  const double season = 26.0 - 6.0 * day / 62.0;
  const double diurnal = 2.5 * std::sin(2.0 * M_PI * (day - 0.3));

  ml::Tensor map({1, cfg.rows, cfg.cols});
  // HVAC cooling zones: four fixed vents pulling toward a setpoint.
  const double vents[4][2] = {{0.2, 0.25}, {0.8, 0.25}, {0.2, 0.75},
                              {0.8, 0.75}};
  // Daytime solar gain along the x1 (window) wall.
  const double solar = std::max(0.0, std::sin(2.0 * M_PI * (day - 0.25))) * 2.0;

  // Row-major {1, rows, cols}: cell (y, x) is field[y * cols + x].
  float* field = map.data();
  for (int y = 0; y < cfg.rows; ++y) {
    float* row = field + static_cast<std::size_t>(y) * cfg.cols;
    for (int x = 0; x < cfg.cols; ++x) {
      const double fx = (static_cast<double>(x) + 0.5) / cfg.cols;
      const double fy = (static_cast<double>(y) + 0.5) / cfg.rows;
      double temp = season + diurnal;
      for (const auto& v : vents) {
        const double d2 = (fx - v[0]) * (fx - v[0]) * 4.0 +
                          (fy - v[1]) * (fy - v[1]) * 4.0;
        temp -= 2.2 * std::exp(-d2 / 0.12);
      }
      temp += solar * fx * fx;  // stronger near the window wall
      row[x] = static_cast<float>(temp);
    }
  }

  // Occupancy heat clusters (meetings, crowds) — the local anomalies that
  // push regions out of the comfort band.
  const int clusters = rng.poisson(cfg.clusters_mean);
  for (int c = 0; c < clusters; ++c) {
    const double cy = rng.uniform(0.0, static_cast<double>(cfg.rows));
    const double cx = rng.uniform(0.0, static_cast<double>(cfg.cols));
    const double heat = cfg.cluster_heat_c * rng.uniform(0.6, 1.4);
    for (int y = 0; y < cfg.rows; ++y) {
      float* row = field + static_cast<std::size_t>(y) * cfg.cols;
      for (int x = 0; x < cfg.cols; ++x) {
        const double d2 = (y - cy) * (y - cy) + (x - cx) * (x - cx);
        row[x] += static_cast<float>(
            heat * std::exp(-d2 / (2.0 * cfg.cluster_sigma_cells *
                                   cfg.cluster_sigma_cells)));
      }
    }
  }

  // Label before sensor noise: any region mean outside the comfort band.
  int discomfort = 0;
  for (int y = 0; y + cfg.region_kernel <= cfg.rows && !discomfort; ++y) {
    for (int x = 0; x + cfg.region_kernel <= cfg.cols; ++x) {
      const double m = region_mean(field, cfg.cols, y, x, cfg.region_kernel);
      if (m < cfg.comfort_lo_c || m > cfg.comfort_hi_c) {
        discomfort = 1;
        break;
      }
    }
  }

  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] += static_cast<float>(rng.normal(0.0, cfg.sensor_noise_c));
  }
  if (rng.bernoulli(cfg.label_noise)) discomfort = 1 - discomfort;

  return {std::move(map), discomfort};
}

ml::Dataset generate_temperature_dataset(const TemperatureFieldConfig& cfg) {
  ZEIOT_CHECK_MSG(cfg.num_samples > 0, "need samples");
  Rng rng(cfg.seed);
  ml::Dataset ds;
  for (int t = 0; t < cfg.num_samples; ++t) {
    TemperatureSample s = generate_temperature_sample(cfg, t, rng);
    // Normalise to roughly unit scale around the comfort midpoint.
    const float mid =
        static_cast<float>((cfg.comfort_lo_c + cfg.comfort_hi_c) / 2.0);
    for (std::size_t i = 0; i < s.map.size(); ++i) {
      s.map[i] = (s.map[i] - mid) / 5.0f;
    }
    ds.add(std::move(s.map), s.discomfort);
  }
  return ds;
}

}  // namespace zeiot::datagen
