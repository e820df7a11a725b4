// int8 post-training quantization for the CNN substrate.
//
// Scheme ("Split CNN Inference on Networked Microcontrollers" is the
// blueprint; gemmlowp-style requantization):
//   - weights:     per-output-channel symmetric int8 (scale = absmax/127,
//                  zero-point 0),
//   - activations: per-tensor symmetric int8 with STATIC calibration
//                  (absmax recorded over a calibration batch run through
//                  the float network once at build time),
//   - accumulation: exact int32 (kernels::igemm_abt_accum), bias folded in
//                  as int32 in (s_in * s_w[oc]) units,
//   - requantize:  acc * M where M = s_in*s_w[oc]/s_out is precomputed as
//                  an int32 Q31 multiplier + right shift — pure integer
//                  arithmetic, so quantized outputs are bit-identical
//                  across backends, thread counts, and reruns,
//   - ReLU:        folded into the requantize clamp ([0,127] instead of
//                  [-127,127]) whenever it directly follows a GEMM layer,
//   - output:      the final Dense dequantizes int32 accumulators straight
//                  to float logits (no final activation grid).
//
// A QuantizedNetwork is a self-describing op list (architecture + weights
// + scales), detached from the float Network it was built from.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/network.hpp"
#include "ml/tensor.hpp"

namespace zeiot::ml {

/// Fixed-point multiplier: x * real_multiplier ≈ (x * multiplier) >> shift,
/// rounding half up, with multiplier a Q(shift-31)… more precisely
/// real_multiplier = multiplier * 2^-shift and multiplier in [2^30, 2^31).
struct RequantScale {
  std::int32_t multiplier = 0;
  int shift = 0;  // total right shift, in [1, 62]
};

/// Decomposes a positive real multiplier (requant ratios are ~1e-3..8).
/// Throws zeiot::Error when m is not finite-positive or too extreme to
/// represent.
RequantScale make_requant_scale(double m);

/// (acc * multiplier + 2^(shift-1)) >> shift — exact int64 intermediate,
/// round half toward +inf.  No clamping.
inline std::int32_t requantize(std::int32_t acc, const RequantScale& s) {
  const std::int64_t prod =
      static_cast<std::int64_t>(acc) * static_cast<std::int64_t>(s.multiplier);
  const std::int64_t round = std::int64_t{1} << (s.shift - 1);
  return static_cast<std::int32_t>((prod + round) >> s.shift);
}

/// clamp(round_half_away(v / scale), -127, 127) — the symmetric int8 grid.
std::int8_t quantize_value(float v, float scale);

/// One quantized layer.  Geometry mirrors the float layers; MaxPool and
/// ReLU run directly in the int8 domain (both commute with the monotone
/// quantization map), Flatten is a pure shape change.
struct QuantOp {
  enum class Kind : int { Conv2D = 0, MaxPool2D = 1, Flatten = 2, Relu = 3, Dense = 4 };
  Kind kind = Kind::Flatten;

  // Conv2D geometry (stride 1, symmetric padding — the substrate's only
  // convolution shape).
  int in_channels = 0, out_channels = 0, kernel = 0, padding = 0;
  // Dense geometry.
  int in_features = 0, out_features = 0;
  // MaxPool window.
  int pool_k = 0;

  bool relu_after = false;      // ReLU folded into the requantize clamp
  bool dequant_output = false;  // Dense only: emit float, skip the int8 grid

  float in_scale = 1.0f;   // activation scale at this op's input
  float out_scale = 1.0f;  // activation scale at this op's (quantized) output

  std::vector<std::int8_t> weight;     // conv: (oc x K); dense: (out x in)
  std::vector<std::int32_t> bias;      // int32, in s_in * s_w[oc] units
  std::vector<RequantScale> requant;   // per out channel (quantized output)
  std::vector<float> dequant_scale;    // per out channel (dequant_output)
};

/// Post-training-quantized network: float in, float logits out, int8
/// everywhere in between.  Build once from a trained float network plus a
/// calibration batch; forward never touches the float weights again.
/// Options for QuantizedNetwork::build.
struct QuantBuildOptions {
  /// Upper bound on calibration samples actually run (the batch is
  /// truncated, never cycled).
  int max_calibration_samples = 64;
};

class QuantizedNetwork {
 public:
  using BuildOptions = QuantBuildOptions;

  QuantizedNetwork() = default;

  /// Quantizes `net` for inputs shaped `input_shape` (excluding batch).
  /// `calibration` is a batch of representative inputs whose per-boundary
  /// absmax values become the static activation scales.
  static QuantizedNetwork build(Network& net,
                                const std::vector<int>& input_shape,
                                const Tensor& calibration,
                                const QuantBuildOptions& opts = {});

  /// Float batch in (N, input_shape...), float logits out.  Deterministic:
  /// exact integer arithmetic end to end, so results are bit-identical
  /// across kernel backends, ZEIOT_THREADS, and reruns.
  Tensor forward(const Tensor& x) const;

  const std::vector<QuantOp>& ops() const { return ops_; }
  const std::vector<int>& input_shape() const { return input_shape_; }
  float input_scale() const { return input_scale_; }

  /// int8 weight + int32 bias + requant table bytes across all ops — the
  /// deployed model footprint.
  std::size_t weight_bytes() const;
  /// Peak per-sample activation footprint in bytes (input + output buffers
  /// of the widest op, 1 byte per int8 activation).
  std::size_t peak_activation_bytes() const;

 private:
  std::vector<QuantOp> ops_;
  std::vector<int> input_shape_;  // excluding batch
  float input_scale_ = 1.0f;
};

/// Per-boundary activation absmax of `net` over (up to max_samples of) a
/// calibration batch: index 0 is the network input, index i+1 the output
/// of layer i.  Exposed for the distributed calibration path (microdeep
/// maps these onto unit layers).
std::vector<float> calibration_absmax(Network& net, const Tensor& calibration,
                                      int max_samples);

}  // namespace zeiot::ml
