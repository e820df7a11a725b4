// Shared per-unit arithmetic of the distributed forward pass.
//
// Both MicroDeep executors — the ideal logits oracle
// (microdeep/executor.hpp) and the network-in-the-loop event simulation
// (netexec/netexec.hpp) — compute layer activations through these kernels.
// The loops here define the *canonical evaluation order* (output units in
// row-major order, inputs in graph-neighbour / feature order), so any two
// executors that feed the same input activations produce bit-identical
// floats: the conformance suite relies on this to assert that a zero-loss
// zero-latency channel reproduces the oracle exactly.  Every input is
// applied; an executor that models loss (netexec) substitutes last-known
// values into `acts` before calling in.
#pragma once

#include <functional>
#include <vector>

#include "microdeep/unit_graph.hpp"

namespace zeiot::microdeep {

/// Activation storage: one vector per unit, length = the unit layer's
/// channel count (1 for dense units).
using ActTable = std::vector<std::vector<float>>;

/// Hooks threaded through the layer walk so each executor keeps its own
/// message accounting without duplicating the arithmetic.  Both may be
/// empty (no-op / every unit).
struct UnitComputeHooks {
  /// Called after each (input, consumer) contribution was applied, once per
  /// pair in canonical order — the message-dedup hook of the ideal executor.
  std::function<void(UnitId src, UnitId dst)> visited;
  /// When non-null, only units for which the predicate returns true are
  /// computed (netexec computes one node's share of a layer at a time; the
  /// per-unit arithmetic is independent, so any partition of a layer
  /// yields the same floats).
  const std::function<bool(UnitId)>* unit_filter = nullptr;
};

/// Computes the activations of unit layer `out_layer` (produced by network
/// layer `layer`) from the `in_layer` activations already present in
/// `acts`.  Supported producers: Conv2D, MaxPool2D, Dense; throws
/// zeiot::Error otherwise.
void compute_unit_layer(ml::Layer& layer, const UnitGraph& graph,
                        std::size_t in_layer, std::size_t out_layer,
                        ActTable& acts, const UnitComputeHooks& hooks = {});

/// In-place ReLU over unit layer `layer_index` (elementwise layers create
/// no units of their own; they act on their producer's activations).
void apply_relu_layer(const UnitGraph& graph, std::size_t layer_index,
                      ActTable& acts,
                      const std::function<bool(UnitId)>* unit_filter = nullptr);

}  // namespace zeiot::microdeep
