#include "datagen/ir_gait.hpp"

#include <algorithm>
#include <cmath>

namespace zeiot::datagen {

namespace {

/// Renders an anisotropic Gaussian heat blob.
void render_blob(ml::Tensor& frame, double cy, double cx, double sy,
                 double sx, double intensity) {
  const int rows = frame.dim(1), cols = frame.dim(2);
  for (int y = 0; y < rows; ++y) {
    float* row = frame.data() + static_cast<std::size_t>(y) * cols;
    for (int x = 0; x < cols; ++x) {
      const double dy = (y - cy) / sy;
      const double dx = (x - cx) / sx;
      row[x] +=
          static_cast<float>(intensity * std::exp(-0.5 * (dy * dy + dx * dx)));
    }
  }
}

}  // namespace

IrStream generate_ir_stream(const IrGaitConfig& cfg, int subject, bool fall,
                            Rng& rng) {
  ZEIOT_CHECK_MSG(cfg.grid >= 6, "grid too small");
  ZEIOT_CHECK_MSG(subject >= 0 && subject < cfg.num_subjects,
                  "subject out of range");
  IrStream st;
  st.subject = subject;

  // Per-subject gait parameters (consistent within a subject, as real
  // subjects differ in speed and size).
  Rng subj_rng(cfg.seed * 1000 + static_cast<std::uint64_t>(subject));
  const double base_speed =
      (static_cast<double>(cfg.grid) + 4.0) /
      static_cast<double>(cfg.frames_per_stream) * subj_rng.uniform(0.8, 1.3);
  const double body_heat = subj_rng.uniform(0.9, 1.1);
  const double body_size = subj_rng.uniform(0.9, 1.15);

  // Trajectory: left-to-right passage at a per-stream lane.
  const double lane = rng.uniform(2.0, static_cast<double>(cfg.grid) - 3.0);
  const double speed = base_speed * rng.uniform(0.9, 1.1);
  double x = -2.0;

  if (fall) {
    st.fall_start = static_cast<int>(
        rng.uniform_int(cfg.window_frames,
                        cfg.frames_per_stream - cfg.fall_duration_frames -
                            cfg.window_frames / 2));
  }
  // Confounder: a crouch/sit-down pause in some normal passages.  It looks
  // like the onset of a fall (the blob lowers and widens) but recovers.
  int crouch_start = -1;
  constexpr int kCrouchFrames = 12;
  if (!fall && rng.bernoulli(cfg.crouch_prob)) {
    crouch_start = static_cast<int>(rng.uniform_int(
        cfg.window_frames, cfg.frames_per_stream - kCrouchFrames - 1));
  }

  for (int f = 0; f < cfg.frames_per_stream; ++f) {
    ml::Tensor frame({1, cfg.grid, cfg.grid});
    double sy = 1.9 * body_size;  // upright: tall
    double sx = 0.8 * body_size;  // upright: narrow
    double cy = lane;
    double intensity = body_heat;

    if (fall && f >= st.fall_start) {
      const double prog = std::min(
          1.0, static_cast<double>(f - st.fall_start) /
                   static_cast<double>(cfg.fall_duration_frames));
      // Body rotates to lying: footprint widens, flattens, settles slightly
      // off-lane, and the blob stops advancing.
      sy = (1.9 - 1.1 * prog) * body_size;
      sx = (0.8 + 1.8 * prog) * body_size;
      cy = lane + 0.8 * prog;
      intensity = body_heat * (1.0 - 0.15 * prog);  // more floor contact
    } else if (crouch_start >= 0 && f >= crouch_start &&
               f < crouch_start + kCrouchFrames) {
      // Crouch: down and slightly wider, paused — then stands back up.
      const double phase =
          static_cast<double>(f - crouch_start) / kCrouchFrames;
      const double depth = std::sin(phase * M_PI);  // down then up
      sy = (1.9 - 0.8 * depth) * body_size;
      sx = (0.8 + 0.7 * depth) * body_size;
      cy = lane + 0.3 * depth;
    } else {
      x += speed * (1.0 + 0.15 * std::sin(f * 1.1));  // gait oscillation
    }
    render_blob(frame, cy, x, sy, sx, intensity);

    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i] += static_cast<float>(rng.normal(0.0, cfg.sensor_noise));
    }
    st.frames.push_back(std::move(frame));
  }
  return st;
}

ml::Dataset generate_ir_dataset(const IrGaitConfig& cfg) {
  ZEIOT_CHECK_MSG(cfg.fall_streams <= cfg.num_streams,
                  "more fall streams than streams");
  ZEIOT_CHECK_MSG(cfg.window_frames < cfg.frames_per_stream,
                  "window must fit in a stream");
  Rng rng(cfg.seed);
  ml::Dataset ds;

  for (int s = 0; s < cfg.num_streams; ++s) {
    const int subject = s % cfg.num_subjects;
    const bool fall = s < cfg.fall_streams;
    const IrStream st = generate_ir_stream(cfg, subject, fall, rng);

    const int num_windows = cfg.frames_per_stream - cfg.window_frames + 1;
    for (int w = 0; w < num_windows; ++w) {
      // Label: does the window overlap the fall (transition or lying)?
      int label = 0;
      if (st.fall_start >= 0) {
        const int overlap =
            std::max(0, std::min(w + cfg.window_frames,
                                 cfg.frames_per_stream) -
                            std::max(w, st.fall_start));
        if (overlap >= cfg.fall_overlap_frames) label = 1;
      }
      if (rng.bernoulli(cfg.label_noise)) label = 1 - label;

      ml::Tensor window({cfg.window_frames, cfg.grid, cfg.grid});
      for (int f = 0; f < cfg.window_frames; ++f) {
        const ml::Tensor& fr = st.frames[static_cast<std::size_t>(w + f)];
        std::copy(fr.data(), fr.data() + fr.size(),
                  window.data() + static_cast<std::size_t>(f) * fr.size());
      }
      if (cfg.mirror_augment) {
        // Horizontal mirror (the same passage walked the other way).
        ml::Tensor mirrored({cfg.window_frames, cfg.grid, cfg.grid});
        for (int f = 0; f < cfg.window_frames; ++f) {
          for (int y = 0; y < cfg.grid; ++y) {
            for (int xx = 0; xx < cfg.grid; ++xx) {
              mirrored.at({f, y, xx}) =
                  window.at({f, y, cfg.grid - 1 - xx});
            }
          }
        }
        ds.add(std::move(mirrored), label);
      }
      ds.add(std::move(window), label);
    }
  }
  return ds;
}

}  // namespace zeiot::datagen
