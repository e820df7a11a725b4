#include "microdeep/assignment.hpp"

#include <algorithm>
#include <limits>

namespace zeiot::microdeep {

Assignment::Assignment(const UnitGraph* graph, std::vector<NodeId> unit_to_node)
    : graph_(graph), map_(std::move(unit_to_node)) {
  ZEIOT_CHECK_MSG(graph != nullptr, "assignment requires a unit graph");
  ZEIOT_CHECK_MSG(map_.size() == graph->num_units(),
                  "assignment size mismatch: " << map_.size() << " units vs "
                                               << graph->num_units());
}

NodeId Assignment::node_of(UnitId u) const {
  ZEIOT_CHECK(u < map_.size());
  return map_[u];
}

std::vector<std::size_t> Assignment::units_per_node(
    std::size_t num_nodes) const {
  std::vector<std::size_t> counts(num_nodes, 0);
  for (NodeId n : map_) {
    ZEIOT_CHECK_MSG(n < num_nodes, "assignment references unknown node");
    ++counts[n];
  }
  return counts;
}

std::size_t Assignment::max_units_per_node(std::size_t num_nodes) const {
  const auto counts = units_per_node(num_nodes);
  return *std::max_element(counts.begin(), counts.end());
}

double Assignment::cross_edge_fraction() const {
  const auto& edges = graph_->edges();
  if (edges.empty()) return 0.0;
  std::size_t cross = 0;
  for (const UnitEdge& e : edges) {
    if (map_[e.src] != map_[e.dst]) ++cross;
  }
  return static_cast<double>(cross) / static_cast<double>(edges.size());
}

double Assignment::cross_edge_fraction_into_layer(
    std::size_t layer_index) const {
  ZEIOT_CHECK_MSG(layer_index >= 1 && layer_index < graph_->layers().size(),
                  "layer index out of range");
  const UnitLayer& l = graph_->layers()[layer_index];
  const UnitId lo = l.first_unit;
  const UnitId hi = lo + static_cast<UnitId>(l.num_units());
  std::size_t total = 0, cross = 0;
  for (const UnitEdge& e : graph_->edges()) {
    if (e.dst >= lo && e.dst < hi) {
      ++total;
      if (map_[e.src] != map_[e.dst]) ++cross;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(cross) / static_cast<double>(total);
}

void Assignment::reassign_dead_nodes(const WsnTopology& wsn,
                                     const std::vector<bool>& dead) {
  ZEIOT_CHECK_MSG(dead.size() == wsn.num_nodes(), "dead mask size mismatch");
  ZEIOT_CHECK_MSG(std::find(dead.begin(), dead.end(), false) != dead.end(),
                  "all nodes dead");
  for (UnitId u = 0; u < map_.size(); ++u) {
    if (!dead[map_[u]]) continue;
    const Point2D p = graph_->position(u, wsn.area());
    NodeId best = kNoNode;
    double best_d = std::numeric_limits<double>::infinity();
    for (NodeId n = 0; n < wsn.num_nodes(); ++n) {
      if (dead[n]) continue;
      const double d = distance(wsn.position(n), p);
      if (d < best_d) {
        best_d = d;
        best = n;
      }
    }
    map_[u] = best;
  }
}

Assignment assign_centralized(const UnitGraph& graph, const WsnTopology& wsn,
                              NodeId sink) {
  ZEIOT_CHECK_MSG(sink < wsn.num_nodes(), "sink out of range");
  std::vector<NodeId> map(graph.num_units(), sink);
  // Input units stay with the node that physically senses them.
  const UnitLayer& input = graph.layers().front();
  for (int i = 0; i < input.num_units(); ++i) {
    const UnitId u = input.first_unit + static_cast<UnitId>(i);
    map[u] = wsn.nearest_node(graph.position(u, wsn.area()));
  }
  return Assignment(&graph, std::move(map));
}

Assignment assign_nearest(const UnitGraph& graph, const WsnTopology& wsn) {
  return Assignment(&graph, nearest_seed_map(graph, wsn));
}

std::vector<NodeId> nearest_seed_map(const UnitGraph& graph,
                                     const WsnTopology& wsn) {
  std::vector<NodeId> map(graph.num_units());
  for (UnitId u = 0; u < graph.num_units(); ++u) {
    map[u] = wsn.nearest_node(graph.position(u, wsn.area()));
  }
  return map;
}

Assignment assign_balanced_heuristic(const UnitGraph& graph,
                                     const WsnTopology& wsn,
                                     int balance_slack) {
  return assign_balanced_heuristic_from(graph, wsn,
                                        nearest_seed_map(graph, wsn),
                                        balance_slack);
}

Assignment assign_balanced_heuristic_from(const UnitGraph& graph,
                                          const WsnTopology& wsn,
                                          std::vector<NodeId> seed_map,
                                          int balance_slack) {
  ZEIOT_CHECK_MSG(balance_slack >= 0, "balance slack must be >= 0");
  ZEIOT_CHECK_MSG(seed_map.size() == graph.num_units(),
                  "seed map size mismatch");
  std::vector<NodeId> map = std::move(seed_map);
  const std::size_t num_nodes = wsn.num_nodes();
  for (NodeId n : map) {
    ZEIOT_CHECK_MSG(n < num_nodes, "seed map references unknown node");
  }
  std::vector<std::size_t> load(num_nodes, 0);
  for (NodeId n : map) ++load[n];
  const std::size_t target =
      (graph.num_units() + num_nodes - 1) / num_nodes;  // ceil average
  const std::size_t cap = target + static_cast<std::size_t>(balance_slack);

  // Input units are pinned: the sensing node owns its own measurement.
  const UnitLayer& input = graph.layers().front();
  const UnitId first_movable =
      input.first_unit + static_cast<UnitId>(input.num_units());
  auto movable = [&](UnitId u) { return u >= first_movable; };

  // Scores a candidate placement of `u` on node `n`: count unit-graph
  // neighbours that would sit on the same node (weight 2) or an adjacent
  // node (weight 1) — the link-correspondence objective.
  auto affinity = [&](UnitId u, NodeId n) {
    const std::uint8_t* link_to_n = wsn.row(n).link;
    int score = 0;
    for (UnitId v : graph.graph_neighbors(u)) {
      if (map[v] == n) score += 2;
      else if (link_to_n[map[v]] != 0) score += 1;
    }
    return score;
  };

  // Iteratively drain overloaded nodes: move their least-attached unit to
  // the best adjacent node with spare capacity.
  bool progress = true;
  int rounds = 0;
  while (progress && rounds < 64) {
    progress = false;
    ++rounds;
    for (NodeId n = 0; n < num_nodes; ++n) {
      while (load[n] > cap) {
        // Pick the movable unit on n with the lowest affinity to n.
        UnitId worst = static_cast<UnitId>(-1);
        int worst_aff = std::numeric_limits<int>::max();
        for (UnitId u = 0; u < map.size(); ++u) {
          if (map[u] != n || !movable(u)) continue;
          const int a = affinity(u, n);
          if (a < worst_aff) {
            worst_aff = a;
            worst = u;
          }
        }
        if (worst == static_cast<UnitId>(-1)) break;
        // Best destination: adjacent node (or any underloaded node as a
        // fallback) with capacity, maximising affinity.
        NodeId best_dst = kNoNode;
        int best_score = std::numeric_limits<int>::min();
        for (NodeId cand : wsn.neighbors(n)) {
          if (load[cand] >= cap) continue;
          const int s = affinity(worst, cand);
          if (s > best_score) {
            best_score = s;
            best_dst = cand;
          }
        }
        if (best_dst == kNoNode) {
          for (NodeId cand = 0; cand < num_nodes; ++cand) {
            if (cand == n || load[cand] >= target) continue;
            const int s = affinity(worst, cand);
            if (s > best_score) {
              best_score = s;
              best_dst = cand;
            }
          }
        }
        if (best_dst == kNoNode) break;
        map[worst] = best_dst;
        --load[n];
        ++load[best_dst];
        progress = true;
      }
    }
  }
  return Assignment(&graph, std::move(map));
}

}  // namespace zeiot::microdeep
