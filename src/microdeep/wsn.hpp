// Wireless sensor network topology for MicroDeep (paper Sec. IV.C, Fig. 8):
// sensor nodes on XY coordinates forming a mesh over the sensed area, with a
// fixed communication radius.  Message routing between non-adjacent nodes
// follows BFS shortest paths, which is what drives the relaying load in the
// communication-cost accounting.
//
// Routing state is built once, flat: hop counts, BFS next hops and links are
// each one dst-major n*n array filled directly by the BFS, plus a CSR copy
// of the adjacency.  netexec and the executor use the checked accessors;
// the planner's inner loops read the same arrays through unchecked row().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"

namespace zeiot::microdeep {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

class WsnTopology {
 public:
  /// Builds a topology from node positions.  `comm_radius_m` defines links.
  /// The resulting graph must be connected (throws otherwise) — MicroDeep
  /// requires every node to be reachable.
  WsnTopology(std::vector<Point2D> positions, Rect area, double comm_radius_m);

  /// Regular grid deployment of `cols` x `rows` nodes filling `area`; the
  /// communication radius is chosen to connect the 8-neighbourhood.
  static WsnTopology grid(Rect area, int cols, int rows);

  /// `n` nodes placed uniformly at random; the radius is grown until the
  /// graph connects (keeps the degree near `target_degree`).
  static WsnTopology random_uniform(Rect area, std::size_t n, Rng& rng,
                                    double target_degree = 6.0);

  /// Grid deployment with per-node placement jitter (fraction of the cell
  /// pitch) — the planned-but-imperfect layout of a real instrumented
  /// space such as the paper's 50-sensor lounge.
  static WsnTopology jittered_grid(Rect area, int cols, int rows, Rng& rng,
                                   double jitter_fraction = 0.25);

  std::size_t num_nodes() const { return positions_.size(); }
  const Rect& area() const { return area_; }
  double comm_radius() const { return comm_radius_; }
  Point2D position(NodeId id) const;
  const std::vector<NodeId>& neighbors(NodeId id) const;
  bool is_link(NodeId a, NodeId b) const;

  /// Node whose position is nearest to `p`.
  NodeId nearest_node(Point2D p) const;

  /// Hop count of the shortest path a->b (0 when a == b).
  int hops(NodeId a, NodeId b) const;

  /// Next hop from `from` along a shortest path to `to` (precomputed BFS).
  /// Requires from != to.
  NodeId next_hop(NodeId from, NodeId to) const;

  /// Unchecked routing view toward `dst` (< num_nodes()) for the planner's
  /// inner loops.  For v < num_nodes(): hops[v] == hops(v, dst), next_hop[v]
  /// == next_hop(v, dst), link[v] == is_link(v, dst), adj(v) == neighbors(v).
  struct Row {
    const int* hops;
    const NodeId* next_hop;
    const std::uint8_t* link;
    const std::uint32_t* adj_begin;
    const NodeId* adj_flat;
    std::span<const NodeId> adj(NodeId v) const {
      return {adj_flat + adj_begin[v], adj_flat + adj_begin[v + 1]};
    }
  };
  Row row(NodeId dst) const {
    const std::size_t base = static_cast<std::size_t>(dst) * positions_.size();
    return {hops_.data() + base, next_hop_.data() + base, link_.data() + base,
            adj_begin_.data(), adj_flat_.data()};
  }

  /// Mean node degree.
  double mean_degree() const;

  /// Canonical structural digest: FNV-1a over the node count, the exact
  /// bit patterns of every node position (in NodeId order), the area
  /// rectangle and the communication radius.  Two topologies digest equal
  /// iff they are bitwise-identical deployments, so a topology rebuilt
  /// from the same seed/parameters keys the same cache entry — the plan
  /// cache contract of zeiot::serve.  Links and routing tables are pure
  /// functions of the digested inputs and need no mixing of their own.
  std::uint64_t digest() const;

 private:
  void build_links();
  void build_routing();

  std::vector<Point2D> positions_;
  Rect area_;
  double comm_radius_;
  std::vector<std::vector<NodeId>> adj_;
  // CSR copy of adj_: v's neighbours are adj_flat_[adj_begin_[v], [v + 1]).
  std::vector<std::uint32_t> adj_begin_;
  std::vector<NodeId> adj_flat_;
  std::vector<std::uint8_t> link_;  // n*n adjacency matrix for O(1) is_link
  // Dst-major n*n tables: entry [to * n + from] is the hop count from
  // `from` to `to`, and the neighbour of `from` one step closer to `to`.
  std::vector<int> hops_;
  std::vector<NodeId> next_hop_;
};

}  // namespace zeiot::microdeep
