#include "microdeep/unit_compute.hpp"

#include <algorithm>
#include <limits>

namespace zeiot::microdeep {

namespace {

inline bool wanted(const UnitComputeHooks& hooks, UnitId u) {
  return hooks.unit_filter == nullptr || (*hooks.unit_filter)(u);
}

inline void visit(const UnitComputeHooks& hooks, UnitId src, UnitId dst) {
  if (hooks.visited) hooks.visited(src, dst);
}

}  // namespace

void compute_unit_layer(ml::Layer& layer, const UnitGraph& graph,
                        std::size_t in_layer, std::size_t out_layer,
                        ActTable& acts, const UnitComputeHooks& hooks) {
  const auto& layers = graph.layers();
  const UnitLayer& out = layers[out_layer];
  const UnitLayer& in = layers[in_layer];

  if (auto* conv = dynamic_cast<ml::Conv2D*>(&layer)) {
    const auto params = conv->params();
    const ml::Tensor& w = params[0]->value;  // (oc, ic, k, k)
    const ml::Tensor& b = params[1]->value;
    const int p = conv->padding();
    for (int oy = 0; oy < out.height; ++oy) {
      for (int ox = 0; ox < out.width; ++ox) {
        const UnitId u =
            out.first_unit + static_cast<UnitId>(oy * out.width + ox);
        if (!wanted(hooks, u)) continue;
        auto& acc = acts[u];
        acc.assign(static_cast<std::size_t>(out.channels), 0.0f);
        for (int oc = 0; oc < out.channels; ++oc) {
          acc[static_cast<std::size_t>(oc)] = b[static_cast<std::size_t>(oc)];
        }
        for (const UnitId src : graph.graph_neighbors(u)) {
          if (src < in.first_unit ||
              src >= in.first_unit + static_cast<UnitId>(in.num_units())) {
            continue;  // neighbour in the *next* layer, not an input
          }
          const int local = static_cast<int>(src - in.first_unit);
          const int sy = local / in.width;
          const int sx = local % in.width;
          const int ky = sy - oy + p;
          const int kx = sx - ox + p;
          ZEIOT_CHECK(ky >= 0 && ky < conv->kernel() && kx >= 0 &&
                      kx < conv->kernel());
          for (int oc = 0; oc < out.channels; ++oc) {
            float dot = 0.0f;
            for (int ic = 0; ic < in.channels; ++ic) {
              dot += w.at({oc, ic, ky, kx}) *
                     acts[src][static_cast<std::size_t>(ic)];
            }
            acc[static_cast<std::size_t>(oc)] += dot;
          }
          visit(hooks, src, u);
        }
      }
    }
  } else if (dynamic_cast<ml::MaxPool2D*>(&layer) != nullptr) {
    for (int oy = 0; oy < out.height; ++oy) {
      for (int ox = 0; ox < out.width; ++ox) {
        const UnitId u =
            out.first_unit + static_cast<UnitId>(oy * out.width + ox);
        if (!wanted(hooks, u)) continue;
        auto& acc = acts[u];
        acc.assign(static_cast<std::size_t>(out.channels),
                   -std::numeric_limits<float>::infinity());
        for (const UnitId src : graph.graph_neighbors(u)) {
          if (src < in.first_unit ||
              src >= in.first_unit + static_cast<UnitId>(in.num_units())) {
            continue;
          }
          for (int c = 0; c < out.channels; ++c) {
            acc[static_cast<std::size_t>(c)] =
                std::max(acc[static_cast<std::size_t>(c)],
                         acts[src][static_cast<std::size_t>(c)]);
          }
          visit(hooks, src, u);
        }
      }
    }
  } else if (auto* dense = dynamic_cast<ml::Dense*>(&layer)) {
    const auto params = dense->params();
    const ml::Tensor& w = params[0]->value;  // (out, in_features)
    const ml::Tensor& b = params[1]->value;
    for (int o = 0; o < out.num_units(); ++o) {
      const UnitId u = out.first_unit + static_cast<UnitId>(o);
      if (!wanted(hooks, u)) continue;
      acts[u].assign(1, b[static_cast<std::size_t>(o)]);
      for (int s = 0; s < in.num_units(); ++s) {
        const UnitId src = in.first_unit + static_cast<UnitId>(s);
        // Flatten order is NCHW: feature index = ic*H*W + (y*W + x).
        float dot = 0.0f;
        for (int ic = 0; ic < in.channels; ++ic) {
          const int feature = ic * in.num_units() + s;
          dot += w.at({o, feature}) * acts[src][static_cast<std::size_t>(ic)];
        }
        acts[u][0] += dot;
        visit(hooks, src, u);
      }
    }
  } else {
    throw Error("compute_unit_layer: unsupported layer " + layer.name());
  }
}

void apply_relu_layer(const UnitGraph& graph, std::size_t layer_index,
                      ActTable& acts,
                      const std::function<bool(UnitId)>* unit_filter) {
  const UnitLayer& l = graph.layers()[layer_index];
  for (int i = 0; i < l.num_units(); ++i) {
    const UnitId u = l.first_unit + static_cast<UnitId>(i);
    if (unit_filter != nullptr && !(*unit_filter)(u)) continue;
    for (float& v : acts[u]) v = std::max(0.0f, v);
  }
}

}  // namespace zeiot::microdeep
