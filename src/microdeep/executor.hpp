// Ideal distributed forward pass: the logits oracle of the MicroDeep
// conformance suite.  It runs inference the way the deployed system would —
// each unit computed on its assigned node from activations that arrive as
// messages over the WSN — rather than as centralized tensor ops, but every
// message arrives instantly and intact.
//
// Contract: the logits equal ml::Network::forward on the sample up to float
// summation order (the tensor kernels sum in a different order; any larger
// divergence means the unit graph's edges do not match the layers' real
// dependencies), and are bit-identical to netexec::NetworkExecutor over
// ChannelConfig::ideal(), with the same deduplicated message set and
// MicroDeepHop multiset.  Latency, loss and message faults are modelled
// only in netexec (netexec/netexec.hpp).
#pragma once

#include "microdeep/assignment.hpp"
#include "ml/network.hpp"
#include "obs/obs.hpp"

namespace zeiot::microdeep {

struct ExecutionResult {
  /// Logits, shape (1, K) — must equal Network::forward on the sample.
  ml::Tensor output;
  /// Cross-node activation messages of the forward pass (deduplicated per
  /// (producer unit, consumer node), unicast accounting).
  double total_messages = 0.0;
};

/// Executes one (C,H,W) sample through `net` using only the unit-graph
/// dataflow and the assignment.  `net` must be the network the graph was
/// built from.
///
/// When `obs` is non-null the walk emits per-node activation-message
/// counters (microdeep.exec.messages, microdeep.exec.node_messages{node=N},
/// microdeep.exec.max_messages_per_node gauge) and one MicroDeepHop trace
/// event per cross-node message at t = 0 (a = source node, b = destination
/// node, value = hop count).
ExecutionResult execute_distributed(ml::Network& net, const UnitGraph& graph,
                                    const Assignment& assignment,
                                    const WsnTopology& wsn,
                                    const ml::Tensor& sample,
                                    obs::Observability* obs = nullptr);

}  // namespace zeiot::microdeep
