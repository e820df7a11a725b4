#include "microdeep/executor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "microdeep/unit_compute.hpp"

namespace zeiot::microdeep {

namespace {

/// Applies the node-serialization timing for one unit layer: units on the
/// same node execute sequentially in input-arrival order.
void serialize_layer(const UnitGraph& graph, const Assignment& assignment,
                     std::size_t layer_index, const LatencyModel& lat,
                     std::vector<double>& ready_at,
                     const std::vector<double>& input_arrival,
                     std::size_t num_nodes, obs::SpanRecorder* sp,
                     obs::SpanId root) {
  const UnitLayer& l = graph.layers()[layer_index];
  // Collect this layer's units per node, ordered by arrival time.
  std::vector<std::vector<UnitId>> per_node(num_nodes);
  for (int i = 0; i < l.num_units(); ++i) {
    const UnitId u = l.first_unit + static_cast<UnitId>(i);
    per_node[assignment.node_of(u)].push_back(u);
  }
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    auto& list = per_node[n];
    std::sort(list.begin(), list.end(), [&](UnitId a, UnitId b) {
      return input_arrival[a] < input_arrival[b];
    });
    double node_free = 0.0;
    double node_start = 0.0;
    bool first_unit = true;
    for (UnitId u : list) {
      const double start = std::max(node_free, input_arrival[u]);
      if (first_unit) {
        node_start = start;
        first_unit = false;
      }
      const double done = start + lat.unit_compute_s;
      ready_at[u] = done;
      node_free = done;
    }
    if (sp != nullptr && !list.empty()) {
      // NodeCompute span over the node's serial execution window of this
      // layer; value = the busy compute time inside that window.
      sp->add(obs::SpanKind::NodeCompute, node_start, node_free, root,
              /*trace_id=*/0, static_cast<std::uint32_t>(n),
              static_cast<std::uint32_t>(layer_index),
              static_cast<double>(list.size()) * lat.unit_compute_s);
    }
  }
}

}  // namespace

ExecutionResult execute_distributed(ml::Network& net, const UnitGraph& graph,
                                    const Assignment& assignment,
                                    const WsnTopology& wsn,
                                    const ml::Tensor& sample,
                                    const LatencyModel& lat,
                                    obs::Observability* obs,
                                    fault::FaultInjector* fault,
                                    double fault_time) {
  ZEIOT_CHECK_MSG(sample.ndim() == 3, "sample must be (C,H,W)");
  const auto& layers = graph.layers();
  const UnitLayer& input = layers.front();
  ZEIOT_CHECK_MSG(sample.dim(0) == input.channels &&
                      sample.dim(1) == input.height &&
                      sample.dim(2) == input.width,
                  "sample shape does not match the unit graph input");
  ZEIOT_CHECK_MSG(lat.hop_latency_s >= 0.0 && lat.unit_compute_s >= 0.0,
                  "latency parameters must be >= 0");

  // Wall-time profiling (gauges only, never digests) + optional causal
  // spans on the virtual latency axis.
  obs::ScopedTimer prof_timer(
      obs != nullptr ? &obs->profiler() : nullptr,
      obs != nullptr ? obs->profiler().region("microdeep.execute_distributed")
                     : 0);
  obs::SpanRecorder* const sp =
      (obs != nullptr && obs->spans_enabled()) ? &obs->spans() : nullptr;
  const obs::SpanId root_span =
      sp != nullptr
          ? sp->open(obs::SpanKind::Inference, 0.0, 0, /*trace_id=*/0,
                     static_cast<std::uint32_t>(wsn.num_nodes()),
                     static_cast<std::uint32_t>(graph.layers().size()))
          : 0;

  ActTable acts(graph.num_units());
  std::vector<double> ready_at(graph.num_units(), 0.0);
  // Input units: the sensed channel vector, available at t = 0.
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

  // Injected fault outcome per (producer unit, consumer node) message —
  // cached with the same key as message_dedup so the injector RNG is
  // consulted exactly once per physical message.
  struct LinkFault {
    bool lost = false;
    double delay_s = 0.0;
  };
  std::unordered_map<std::uint64_t, LinkFault> link_faults;
  auto link_fault = [&](UnitId src, UnitId dst) -> LinkFault {
    if (fault == nullptr) return {};
    const NodeId sn = assignment.node_of(src);
    const NodeId dn = assignment.node_of(dst);
    if (sn == dn) return {};
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dn;
    auto [it, inserted] = link_faults.try_emplace(key);
    if (inserted) {
      it->second.lost = fault->should_drop(fault_time, sn, dn) ||
                        fault->should_corrupt(fault_time, sn, dn);
      it->second.delay_s = fault->message_delay_s(fault_time, sn, dn);
      if (it->second.lost) res.messages_faulted += 1.0;
    }
    return it->second;
  };

  // The message arrival time of `src`'s activation at `dst`'s node, also
  // counting the (deduplicated) message.
  auto arrival = [&](UnitId src, UnitId dst) {
    const NodeId sn = assignment.node_of(src);
    const NodeId dn = assignment.node_of(dst);
    if (sn == dn) return ready_at[src];
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dn;
    const int hops = wsn.hops(sn, dn);
    if (message_dedup.insert(key).second) {
      res.total_messages += 1.0;
      if (obs != nullptr) {
        node_messages[sn] += 1.0;
        node_messages[dn] += 1.0;
        obs->trace().record(ready_at[src], obs::SpanKind::MicroDeepHop, sn,
                            dn, static_cast<double>(hops));
      }
    }
    double extra = 0.0;
    if (fault != nullptr) extra = link_fault(src, dst).delay_s;
    return ready_at[src] + lat.hop_latency_s * static_cast<double>(hops) +
           extra;
  };

  std::vector<double> input_arrival;
  UnitComputeHooks hooks;
  hooks.substitute_missing = fault != nullptr;
  hooks.lost = [&](UnitId src, UnitId dst) {
    return fault != nullptr && link_fault(src, dst).lost;
  };
  hooks.visited = [&](UnitId src, UnitId dst, bool lost) {
    const double at = arrival(src, dst);
    if (!lost) input_arrival[dst] = std::max(input_arrival[dst], at);
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
    input_arrival.assign(graph.num_units(), 0.0);
    compute_unit_layer(layer, graph, unit_layer, pl, acts, hooks);
    serialize_layer(graph, assignment, pl, lat, ready_at, input_arrival,
                    wsn.num_nodes(), sp, root_span);
    unit_layer = pl;
  }

  // Emit the logits of the final unit layer.
  const UnitLayer& last = layers.back();
  ZEIOT_CHECK_MSG(last.kind == UnitLayer::Kind::Dense,
                  "network must end in a dense (logit) layer");
  res.output = ml::Tensor({1, last.num_units()});
  double latency = 0.0;
  for (int i = 0; i < last.num_units(); ++i) {
    const UnitId u = last.first_unit + static_cast<UnitId>(i);
    res.output.at({0, i}) = acts[u][0];
    latency = std::max(latency, ready_at[u]);
  }
  res.inference_latency_s = latency;
  if (sp != nullptr) {
    sp->close(root_span, latency, res.total_messages);
  }

  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.counter("microdeep.exec.messages").inc(res.total_messages);
    if (fault != nullptr) {
      m.counter("microdeep.exec.messages_faulted").inc(res.messages_faulted);
    }
    m.summary("microdeep.exec.latency_s").observe(res.inference_latency_s);
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
