// Unit-to-node assignment strategies (the heart of MicroDeep).
//
// The paper evaluates two regimes:
//  (a) the "standard CNN" — everything computed at one place, i.e. all
//      units on a sink node, with sensing data relayed in (our
//      `assign_centralized`), and
//  (b) a "heuristic assignment to maximize the correspondence of CNN links
//      and WSN links equalizing the number of units assigned to each sensor
//      node" (our `assign_balanced_heuristic`).
// A plain geometric assignment (`assign_nearest`) sits between the two and
// is used for ablation.
#pragma once

#include "microdeep/unit_graph.hpp"
#include "microdeep/wsn.hpp"

namespace zeiot::microdeep {

/// Maps every unit (by global id) to the node executing it.
class Assignment {
 public:
  Assignment(const UnitGraph* graph, std::vector<NodeId> unit_to_node);

  NodeId node_of(UnitId u) const;
  std::size_t num_units() const { return map_.size(); }

  /// The raw unit->node map in UnitId order.  This vector is the whole
  /// portable state of an assignment: rebinding it to another UnitGraph
  /// built from the same network/shape (via the constructor) reproduces
  /// the assignment exactly — how zeiot::serve's plan cache stores search
  /// results without keeping the source graph or topology alive.
  const std::vector<NodeId>& unit_map() const { return map_; }

  /// Number of units hosted per node (indexed by NodeId).
  std::vector<std::size_t> units_per_node(std::size_t num_nodes) const;
  /// Largest per-node unit count.
  std::size_t max_units_per_node(std::size_t num_nodes) const;
  /// Fraction of unit-graph edges whose endpoints live on different nodes.
  double cross_edge_fraction() const;
  /// Cross fraction restricted to edges entering unit layer `layer_index`
  /// (>= 1; layer 0 is the input and has no incoming edges).
  double cross_edge_fraction_into_layer(std::size_t layer_index) const;

  const UnitGraph& graph() const { return *graph_; }

  /// Reassigns units on `dead` nodes to the nearest alive node (failure
  /// resilience, paper Sec. V).  Requires at least one alive node.
  void reassign_dead_nodes(const WsnTopology& wsn,
                           const std::vector<bool>& dead);

 private:
  const UnitGraph* graph_;
  std::vector<NodeId> map_;
};

/// All units on `sink`; sensing inputs still originate at their owner nodes.
Assignment assign_centralized(const UnitGraph& graph, const WsnTopology& wsn,
                              NodeId sink);

/// Every unit to the node geometrically nearest its XY coordinate.
Assignment assign_nearest(const UnitGraph& graph, const WsnTopology& wsn);

/// Heuristic of the paper: start from the geometric assignment, then move
/// units from overloaded to underloaded *adjacent* nodes, preferring moves
/// that keep unit-graph neighbours on the same or adjacent WSN nodes
/// (maximising CNN-link / WSN-link correspondence) while equalising the
/// per-node unit count to within +/-`balance_slack` of the average.
Assignment assign_balanced_heuristic(const UnitGraph& graph,
                                     const WsnTopology& wsn,
                                     int balance_slack = 1);

/// The same balance-and-drain heuristic, but started from a caller-supplied
/// seed placement instead of the geometric one — the assignment search uses
/// jittered seeds for its restarts, sharing one precomputed geometric map
/// across all candidates.  `seed_map` must have one entry per unit, and
/// must already place every input unit on its sensing node (the entry
/// nearest_seed_map() gives it): input units are never moved, and this
/// precondition is not re-checked, since the search pins them once for
/// all its candidates.
Assignment assign_balanced_heuristic_from(const UnitGraph& graph,
                                          const WsnTopology& wsn,
                                          std::vector<NodeId> seed_map,
                                          int balance_slack = 1);

/// Geometric unit->node seed map (each unit to its nearest node) — the
/// shared starting point for heuristic variants and search restarts.
std::vector<NodeId> nearest_seed_map(const UnitGraph& graph,
                                     const WsnTopology& wsn);

}  // namespace zeiot::microdeep
