#include "ml/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "ml/kernels/gemm.hpp"

namespace zeiot::ml {

namespace {

float absmax_range(const float* p, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

float scale_from_absmax(float absmax) {
  return absmax > 0.0f ? absmax / 127.0f : 1.0f;
}

std::int8_t clamp_i8(long v, long lo) {
  return static_cast<std::int8_t>(std::clamp(v, lo, long{127}));
}

// Packs one int8 image (c x h x w) into a (P x K) row panel: row p is
// output position (oy, ox), column r = (ic*k + ky)*k + kx — the same K
// order as the conv weight rows, so igemm_abt_accum(Wq, panel) is the
// quantized convolution.  Padding cells are exact zeros (zero-point 0).
void im2row_i8(const std::int8_t* img, int c, int h, int w, int k, int pad,
               int oh, int ow, std::int8_t* out) {
  const int kdim = c * k * k;
  std::int8_t* row = out;
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, row += kdim) {
      for (int ic = 0; ic < c; ++ic) {
        const std::int8_t* plane =
            img + static_cast<std::size_t>(ic) * h * static_cast<std::size_t>(w);
        for (int ky = 0; ky < k; ++ky) {
          const int iy = oy + ky - pad;
          for (int kx = 0; kx < k; ++kx) {
            const int ix = ox + kx - pad;
            row[(ic * k + ky) * k + kx] =
                (iy >= 0 && iy < h && ix >= 0 && ix < w)
                    ? plane[static_cast<std::size_t>(iy) * w + ix]
                    : std::int8_t{0};
          }
        }
      }
    }
  }
}

// Quantizes one weight matrix of `rows` rows x `cols` columns (row-major
// float) into int8 rows with per-row symmetric scales.
std::vector<float> quantize_weight_rows(const float* w, int rows, int cols,
                                        std::vector<std::int8_t>& out) {
  out.resize(static_cast<std::size_t>(rows) * cols);
  std::vector<float> scales(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    const float* src = w + static_cast<std::size_t>(r) * cols;
    const float s = scale_from_absmax(absmax_range(src, cols));
    scales[static_cast<std::size_t>(r)] = s;
    std::int8_t* dst = out.data() + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) dst[c] = quantize_value(src[c], s);
  }
  return scales;
}

int prod(const std::vector<int>& dims) {
  int p = 1;
  for (int d : dims) p *= d;
  return p;
}

}  // namespace

RequantScale make_requant_scale(double m) {
  ZEIOT_CHECK_MSG(std::isfinite(m) && m > 0.0,
                  "requant multiplier must be finite and positive, got " << m);
  int e = 0;
  const double m0 = std::frexp(m, &e);  // m = m0 * 2^e, m0 in [0.5, 1)
  auto mult = static_cast<std::int64_t>(std::llround(m0 * 2147483648.0));
  if (mult == (std::int64_t{1} << 31)) {  // m0 rounded up to exactly 1.0
    mult >>= 1;
    ++e;
  }
  const int shift = 31 - e;
  ZEIOT_CHECK_MSG(shift >= 1 && shift <= 62,
                  "requant multiplier out of representable range: " << m);
  return RequantScale{static_cast<std::int32_t>(mult), shift};
}

std::int8_t quantize_value(float v, float scale) {
  const long r =
      std::lround(static_cast<double>(v) / static_cast<double>(scale));
  return clamp_i8(r, -127);
}

std::vector<float> calibration_absmax(Network& net, const Tensor& calibration,
                                      int max_samples) {
  ZEIOT_CHECK_MSG(calibration.ndim() >= 2, "calibration batch must be (N,...)");
  ZEIOT_CHECK_MSG(max_samples > 0, "max_samples must be > 0");
  Tensor cur = calibration;
  if (calibration.dim(0) > max_samples) {
    std::vector<int> sub_shape = calibration.shape();
    sub_shape[0] = max_samples;
    Tensor sub(sub_shape);
    std::copy(calibration.data(), calibration.data() + sub.size(), sub.data());
    cur = std::move(sub);
  }
  std::vector<float> absmax;
  absmax.reserve(net.num_layers() + 1);
  absmax.push_back(absmax_range(cur.data(), cur.size()));
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    cur = net.layer(i).forward(cur, /*train=*/false);
    absmax.push_back(absmax_range(cur.data(), cur.size()));
  }
  return absmax;
}

QuantizedNetwork QuantizedNetwork::build(Network& net,
                                         const std::vector<int>& input_shape,
                                         const Tensor& calibration,
                                         const QuantBuildOptions& opts) {
  ZEIOT_CHECK_MSG(net.num_layers() > 0, "cannot quantize an empty network");
  const std::vector<float> absmax =
      calibration_absmax(net, calibration, opts.max_calibration_samples);
  std::vector<float> scales(absmax.size());
  for (std::size_t i = 0; i < absmax.size(); ++i) {
    scales[i] = scale_from_absmax(absmax[i]);
  }

  QuantizedNetwork q;
  q.input_shape_ = input_shape;
  q.input_scale_ = scales[0];

  std::size_t last_dense = static_cast<std::size_t>(-1);
  std::size_t li = 0;
  while (li < net.num_layers()) {
    Layer& layer = net.layer(li);
    // ReLU directly after a GEMM layer folds into its requantize clamp.
    const bool next_is_relu =
        li + 1 < net.num_layers() &&
        dynamic_cast<const ReLU*>(&net.layer(li + 1)) != nullptr;

    if (auto* conv = dynamic_cast<Conv2D*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::Conv2D;
      op.in_channels = conv->in_channels();
      op.out_channels = conv->out_channels();
      op.kernel = conv->kernel();
      op.padding = conv->padding();
      op.relu_after = next_is_relu;
      op.in_scale = scales[li];
      op.out_scale = scales[li + (next_is_relu ? 2 : 1)];
      const int kdim = op.in_channels * op.kernel * op.kernel;
      const auto params = conv->params();
      const std::vector<float> wscale = quantize_weight_rows(
          params[0]->value.data(), op.out_channels, kdim, op.weight);
      const float* bias = params[1]->value.data();
      op.bias.resize(static_cast<std::size_t>(op.out_channels));
      op.requant.resize(static_cast<std::size_t>(op.out_channels));
      for (int oc = 0; oc < op.out_channels; ++oc) {
        const double unit = static_cast<double>(op.in_scale) * wscale[oc];
        op.bias[static_cast<std::size_t>(oc)] = static_cast<std::int32_t>(
            std::llround(static_cast<double>(bias[oc]) / unit));
        op.requant[static_cast<std::size_t>(oc)] =
            make_requant_scale(unit / op.out_scale);
      }
      q.ops_.push_back(std::move(op));
      li += next_is_relu ? 2 : 1;
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::Dense;
      op.in_features = dense->in_features();
      op.out_features = dense->out_features();
      op.relu_after = next_is_relu;
      op.in_scale = scales[li];
      op.out_scale = scales[li + (next_is_relu ? 2 : 1)];
      const auto params = dense->params();
      const std::vector<float> wscale = quantize_weight_rows(
          params[0]->value.data(), op.out_features, op.in_features, op.weight);
      const float* bias = params[1]->value.data();
      op.bias.resize(static_cast<std::size_t>(op.out_features));
      op.requant.resize(static_cast<std::size_t>(op.out_features));
      op.dequant_scale.resize(static_cast<std::size_t>(op.out_features));
      for (int o = 0; o < op.out_features; ++o) {
        const double unit = static_cast<double>(op.in_scale) * wscale[o];
        op.bias[static_cast<std::size_t>(o)] = static_cast<std::int32_t>(
            std::llround(static_cast<double>(bias[o]) / unit));
        op.requant[static_cast<std::size_t>(o)] =
            make_requant_scale(unit / op.out_scale);
        op.dequant_scale[static_cast<std::size_t>(o)] =
            static_cast<float>(unit);
      }
      last_dense = q.ops_.size();
      q.ops_.push_back(std::move(op));
      li += next_is_relu ? 2 : 1;
    } else if (auto* pool = dynamic_cast<MaxPool2D*>(&layer)) {
      QuantOp op;
      op.kind = QuantOp::Kind::MaxPool2D;
      op.pool_k = pool->k();
      op.in_scale = op.out_scale = scales[li];
      q.ops_.push_back(std::move(op));
      ++li;
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      QuantOp op;
      op.kind = QuantOp::Kind::Flatten;
      op.in_scale = op.out_scale = scales[li];
      q.ops_.push_back(std::move(op));
      ++li;
    } else if (dynamic_cast<ReLU*>(&layer) != nullptr) {
      QuantOp op;  // a ReLU that did not fold (not preceded by a GEMM)
      op.kind = QuantOp::Kind::Relu;
      op.in_scale = op.out_scale = scales[li];
      q.ops_.push_back(std::move(op));
      ++li;
    } else if (dynamic_cast<Dropout*>(&layer) != nullptr) {
      ++li;  // identity at inference
    } else {
      throw Error("cannot quantize layer '" + layer.name() + "'");
    }
  }

  ZEIOT_CHECK_MSG(!q.ops_.empty(), "network quantized to an empty op list");
  // The final Dense skips the int8 grid and emits float logits directly
  // from the int32 accumulators.
  if (last_dense == q.ops_.size() - 1) {
    q.ops_[last_dense].dequant_output = true;
  }
  return q;
}

Tensor QuantizedNetwork::forward(const Tensor& x) const {
  ZEIOT_CHECK_MSG(!ops_.empty(), "forward on an empty quantized network");
  ZEIOT_CHECK_MSG(x.ndim() == static_cast<int>(input_shape_.size()) + 1,
                  "quantized forward rank mismatch");
  for (std::size_t i = 0; i < input_shape_.size(); ++i) {
    ZEIOT_CHECK_MSG(x.dim(static_cast<int>(i) + 1) == input_shape_[i],
                    "quantized forward shape mismatch at dim " << i + 1);
  }
  const int n = x.dim(0);
  std::vector<int> shape = input_shape_;  // per-sample shape
  std::size_t elems = static_cast<std::size_t>(prod(shape));

  // Quantize the input onto the calibrated grid.
  std::vector<std::int8_t> cur(static_cast<std::size_t>(n) * elems);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    cur[i] = quantize_value(x[i], input_scale_);
  }

  std::vector<std::int8_t> next;
  std::vector<std::int8_t> panel;
  std::vector<std::int32_t> acc;
  float cur_scale = input_scale_;

  for (const QuantOp& op : ops_) {
    switch (op.kind) {
      case QuantOp::Kind::Conv2D: {
        const int h = shape[1], w = shape[2];
        const int oh = h + 2 * op.padding - op.kernel + 1;
        const int ow = w + 2 * op.padding - op.kernel + 1;
        ZEIOT_CHECK_MSG(shape[0] == op.in_channels && oh > 0 && ow > 0,
                        "quantized conv geometry mismatch");
        const int kdim = op.in_channels * op.kernel * op.kernel;
        const int p = oh * ow;
        const std::size_t out_elems =
            static_cast<std::size_t>(op.out_channels) * p;
        panel.resize(static_cast<std::size_t>(p) * kdim);
        acc.resize(out_elems);
        next.resize(static_cast<std::size_t>(n) * out_elems);
        const long lo = op.relu_after ? 0 : -127;
        for (int b = 0; b < n; ++b) {
          im2row_i8(cur.data() + static_cast<std::size_t>(b) * elems,
                    op.in_channels, h, w, op.kernel, op.padding, oh, ow,
                    panel.data());
          for (int oc = 0; oc < op.out_channels; ++oc) {
            std::fill(acc.begin() + static_cast<std::size_t>(oc) * p,
                      acc.begin() + static_cast<std::size_t>(oc + 1) * p,
                      op.bias[static_cast<std::size_t>(oc)]);
          }
          kernels::igemm_abt_accum(op.out_channels, p, kdim, op.weight.data(),
                                   kdim, panel.data(), kdim, acc.data(), p);
          std::int8_t* dst = next.data() + static_cast<std::size_t>(b) * out_elems;
          for (int oc = 0; oc < op.out_channels; ++oc) {
            const RequantScale& rs = op.requant[static_cast<std::size_t>(oc)];
            const std::int32_t* arow = acc.data() + static_cast<std::size_t>(oc) * p;
            std::int8_t* drow = dst + static_cast<std::size_t>(oc) * p;
            for (int j = 0; j < p; ++j) {
              drow[j] = clamp_i8(requantize(arow[j], rs), lo);
            }
          }
        }
        cur.swap(next);
        shape = {op.out_channels, oh, ow};
        elems = out_elems;
        cur_scale = op.out_scale;
        break;
      }
      case QuantOp::Kind::MaxPool2D: {
        const int c = shape[0], h = shape[1], w = shape[2];
        const int oh = h / op.pool_k, ow = w / op.pool_k;
        ZEIOT_CHECK_MSG(oh > 0 && ow > 0, "quantized pool output empty");
        const std::size_t out_elems = static_cast<std::size_t>(c) * oh * ow;
        next.resize(static_cast<std::size_t>(n) * out_elems);
        for (int b = 0; b < n; ++b) {
          const std::int8_t* src = cur.data() + static_cast<std::size_t>(b) * elems;
          std::int8_t* dst = next.data() + static_cast<std::size_t>(b) * out_elems;
          for (int ic = 0; ic < c; ++ic) {
            const std::int8_t* plane =
                src + static_cast<std::size_t>(ic) * h * static_cast<std::size_t>(w);
            std::int8_t* oplane =
                dst + static_cast<std::size_t>(ic) * oh * static_cast<std::size_t>(ow);
            for (int oy = 0; oy < oh; ++oy) {
              for (int ox = 0; ox < ow; ++ox) {
                std::int8_t best = std::numeric_limits<std::int8_t>::min();
                for (int ky = 0; ky < op.pool_k; ++ky) {
                  const std::int8_t* row =
                      plane +
                      static_cast<std::size_t>(oy * op.pool_k + ky) * w +
                      static_cast<std::size_t>(ox) * op.pool_k;
                  for (int kx = 0; kx < op.pool_k; ++kx) {
                    best = std::max(best, row[kx]);
                  }
                }
                oplane[static_cast<std::size_t>(oy) * ow + ox] = best;
              }
            }
          }
        }
        cur.swap(next);
        shape = {c, oh, ow};
        elems = out_elems;
        break;
      }
      case QuantOp::Kind::Flatten: {
        shape = {static_cast<int>(elems)};
        break;
      }
      case QuantOp::Kind::Relu: {
        for (auto& v : cur) v = std::max(v, std::int8_t{0});
        break;
      }
      case QuantOp::Kind::Dense: {
        ZEIOT_CHECK_MSG(static_cast<int>(elems) == op.in_features,
                        "quantized dense feature mismatch");
        const std::size_t out_elems = static_cast<std::size_t>(op.out_features);
        acc.resize(static_cast<std::size_t>(n) * out_elems);
        for (int b = 0; b < n; ++b) {
          for (int o = 0; o < op.out_features; ++o) {
            acc[static_cast<std::size_t>(b) * out_elems + o] =
                op.bias[static_cast<std::size_t>(o)];
          }
        }
        kernels::igemm_abt_accum(n, op.out_features, op.in_features,
                                 cur.data(), op.in_features, op.weight.data(),
                                 op.in_features, acc.data(), op.out_features);
        if (op.dequant_output) {
          std::vector<int> out_shape = {n, op.out_features};
          Tensor out(out_shape);
          for (int b = 0; b < n; ++b) {
            for (int o = 0; o < op.out_features; ++o) {
              float v = static_cast<float>(
                  acc[static_cast<std::size_t>(b) * out_elems + o] *
                  static_cast<double>(
                      op.dequant_scale[static_cast<std::size_t>(o)]));
              if (op.relu_after) v = std::max(v, 0.0f);
              out[static_cast<std::size_t>(b) * out_elems + o] = v;
            }
          }
          return out;
        }
        const long lo = op.relu_after ? 0 : -127;
        next.resize(static_cast<std::size_t>(n) * out_elems);
        for (int b = 0; b < n; ++b) {
          for (int o = 0; o < op.out_features; ++o) {
            const std::size_t idx = static_cast<std::size_t>(b) * out_elems + o;
            next[idx] = clamp_i8(
                requantize(acc[idx], op.requant[static_cast<std::size_t>(o)]),
                lo);
          }
        }
        cur.swap(next);
        shape = {op.out_features};
        elems = out_elems;
        cur_scale = op.out_scale;
        break;
      }
    }
  }

  // The op list did not end in a dequantizing Dense: dequantize whatever is
  // left on the int8 grid.
  std::vector<int> out_shape;
  out_shape.reserve(shape.size() + 1);
  out_shape.push_back(n);
  out_shape.insert(out_shape.end(), shape.begin(), shape.end());
  Tensor out(out_shape);
  for (std::size_t i = 0; i < cur.size(); ++i) {
    out[i] = static_cast<float>(cur[i]) * cur_scale;
  }
  return out;
}

std::size_t QuantizedNetwork::weight_bytes() const {
  std::size_t bytes = 0;
  for (const QuantOp& op : ops_) {
    bytes += op.weight.size() * sizeof(std::int8_t);
    bytes += op.bias.size() * sizeof(std::int32_t);
    bytes += op.requant.size() * (sizeof(std::int32_t) + sizeof(std::int32_t));
    bytes += op.dequant_scale.size() * sizeof(float);
  }
  return bytes;
}

std::size_t QuantizedNetwork::peak_activation_bytes() const {
  std::vector<int> shape = input_shape_;
  std::size_t elems = static_cast<std::size_t>(prod(shape));
  std::size_t peak = elems;
  for (const QuantOp& op : ops_) {
    std::size_t out_elems = elems;
    switch (op.kind) {
      case QuantOp::Kind::Conv2D: {
        const int oh = shape[1] + 2 * op.padding - op.kernel + 1;
        const int ow = shape[2] + 2 * op.padding - op.kernel + 1;
        shape = {op.out_channels, oh, ow};
        out_elems = static_cast<std::size_t>(prod(shape));
        break;
      }
      case QuantOp::Kind::MaxPool2D: {
        shape = {shape[0], shape[1] / op.pool_k, shape[2] / op.pool_k};
        out_elems = static_cast<std::size_t>(prod(shape));
        break;
      }
      case QuantOp::Kind::Flatten:
        shape = {static_cast<int>(elems)};
        break;
      case QuantOp::Kind::Relu:
        break;
      case QuantOp::Kind::Dense:
        shape = {op.out_features};
        out_elems = static_cast<std::size_t>(op.out_features);
        break;
    }
    peak = std::max(peak, elems + out_elems);  // in + out live concurrently
    elems = out_elems;
  }
  return peak;
}

}  // namespace zeiot::ml
