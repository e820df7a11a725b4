#include "microdeep/executor.hpp"

#include <algorithm>
#include <unordered_set>

#include "microdeep/unit_compute.hpp"

namespace zeiot::microdeep {

ExecutionResult execute_distributed(ml::Network& net, const UnitGraph& graph,
                                    const Assignment& assignment,
                                    const WsnTopology& wsn,
                                    const ml::Tensor& sample,
                                    obs::Observability* obs) {
  ZEIOT_CHECK_MSG(sample.ndim() == 3, "sample must be (C,H,W)");
  const auto& layers = graph.layers();
  const UnitLayer& input = layers.front();
  ZEIOT_CHECK_MSG(sample.dim(0) == input.channels &&
                      sample.dim(1) == input.height &&
                      sample.dim(2) == input.width,
                  "sample shape does not match the unit graph input");

  // Wall-time profiling (gauges only, never digests).
  obs::ScopedTimer prof_timer(
      obs != nullptr ? &obs->profiler() : nullptr,
      obs != nullptr ? obs->profiler().region("microdeep.execute_distributed")
                     : 0);

  ActTable acts(graph.num_units());
  // Input units: the sensed channel vector.
  for (int y = 0; y < input.height; ++y) {
    for (int x = 0; x < input.width; ++x) {
      const UnitId u =
          input.first_unit + static_cast<UnitId>(y * input.width + x);
      acts[u].resize(static_cast<std::size_t>(input.channels));
      for (int c = 0; c < input.channels; ++c) {
        acts[u][static_cast<std::size_t>(c)] = sample.at({c, y, x});
      }
    }
  }

  ExecutionResult res;
  std::unordered_set<std::uint64_t> message_dedup;
  // Per-node message involvement (tx at source, rx at destination), kept
  // locally and published once so the hot loop stays map-free.
  std::vector<double> node_messages(obs != nullptr ? wsn.num_nodes() : 0, 0.0);

  // Counts each (producer unit, consumer node) message once.
  UnitComputeHooks hooks;
  hooks.visited = [&](UnitId src, UnitId dst) {
    const NodeId sn = assignment.node_of(src);
    const NodeId dn = assignment.node_of(dst);
    if (sn == dn) return;
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dn;
    if (!message_dedup.insert(key).second) return;
    res.total_messages += 1.0;
    if (obs != nullptr) {
      node_messages[sn] += 1.0;
      node_messages[dn] += 1.0;
      obs->trace().record(0.0, obs::SpanKind::MicroDeepHop, sn, dn,
                          static_cast<double>(wsn.hops(sn, dn)));
    }
  };

  // Walk the network layer by layer, mirroring UnitGraph::build's mapping.
  std::size_t unit_layer = 0;  // current (producer) unit layer index
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    ml::Layer& layer = net.layer(li);
    const int produced = graph.unit_layer_of_net_layer(li);
    if (produced < 0) {
      // Elementwise / reshaping layer: acts in place on the current units.
      if (dynamic_cast<ml::ReLU*>(&layer) != nullptr) {
        apply_relu_layer(graph, unit_layer, acts);
      }
      // Flatten and Dropout (inference) do not change unit activations.
      continue;
    }

    const auto pl = static_cast<std::size_t>(produced);
    compute_unit_layer(layer, graph, unit_layer, pl, acts, hooks);
    unit_layer = pl;
  }

  // Emit the logits of the final unit layer.
  const UnitLayer& last = layers.back();
  ZEIOT_CHECK_MSG(last.kind == UnitLayer::Kind::Dense,
                  "network must end in a dense (logit) layer");
  res.output = ml::Tensor({1, last.num_units()});
  for (int i = 0; i < last.num_units(); ++i) {
    const UnitId u = last.first_unit + static_cast<UnitId>(i);
    res.output.at({0, i}) = acts[u][0];
  }

  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.counter("microdeep.exec.messages").inc(res.total_messages);
    double peak = 0.0;
    for (NodeId n = 0; n < node_messages.size(); ++n) {
      if (node_messages[n] > 0.0) {
        m.counter("microdeep.exec.node_messages",
                  {{"node", std::to_string(n)}})
            .inc(node_messages[n]);
      }
      peak = std::max(peak, node_messages[n]);
    }
    m.gauge("microdeep.exec.max_messages_per_node").set(peak);
  }
  return res;
}

}  // namespace zeiot::microdeep
