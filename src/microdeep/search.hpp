// Assignment search: evaluate a portfolio of unit-to-node assignments
// (geometric, balance-and-drain at several slack levels, jittered random
// restarts) and keep the one with the lowest peak per-node communication
// cost — the quantity the paper's Fig. 10 minimizes.
//
// The search is deterministically parallel: candidates are generated in a
// fixed order with per-candidate RNG substreams keyed by candidate index
// (par::substream), evaluated concurrently, and the winner is chosen by
// (max_cost, candidate index) so the result is bit-identical at any worker
// count.  Expensive shared state is computed once and reused by every
// candidate: the WSN's BFS routing tables are built at WsnTopology
// construction as flat dst-major rows that the cost model reads unchecked
// (WsnTopology::row), and the geometric unit->nearest-node seed map is
// built a single time up front.  That seed map also pins every input unit
// to its sensing node, so no candidate re-runs a nearest-node scan: the
// jittered restarts copy the input units back from it after drawing.
#pragma once

#include <string>
#include <vector>

#include "microdeep/comm_cost.hpp"
#include "microdeep/memory.hpp"

namespace zeiot::par {
class ThreadPool;
}

namespace zeiot::microdeep {

struct AssignmentSearchOptions {
  /// Evaluate the plain geometric (nearest) assignment as candidate 0.
  bool include_nearest = true;
  /// Balance-and-drain heuristic candidates at slack 0..max_balance_slack.
  int max_balance_slack = 3;
  /// Jittered-seed heuristic restarts appended after the slack sweep.
  int random_restarts = 8;
  /// Probability that a restart seed moves a unit from its nearest node to
  /// a uniformly chosen WSN neighbour of that node.
  double jitter_probability = 0.3;
  /// Base seed for restart substreams (candidate index keys the stream).
  std::uint64_t seed = 42;
  /// Cost model used to score candidates.
  CommCostOptions cost_options{};
  /// Per-node memory budget (see microdeep/memory.hpp).  When enabled
  /// (node_budget_bytes > 0), candidates whose peak per-node residency
  /// exceeds the budget are rejected BEFORE cost scoring: they can never
  /// become the incumbent or the winner, and their score reports
  /// over_budget with +inf cost.  If every candidate violates the budget
  /// the search throws zeiot::Error — an undeployable configuration is an
  /// error, not a silently bad assignment.  The NVM budget
  /// (nvm_budget_bytes > 0) gates identically on the worst-case per-node
  /// checkpoint image (peak_node_checkpoint_bytes), for deployments that
  /// run netexec with checkpointing enabled.
  NodeMemoryModel memory{};
  /// Worker pool (null = par::global_pool(), honours ZEIOT_THREADS).
  par::ThreadPool* pool = nullptr;
  /// Abandon a candidate as soon as its running max per-node cost exceeds
  /// the best complete score seen so far.  Candidates are evaluated in
  /// fixed-size waves with the incumbent bound frozen per wave, so which
  /// candidates abort — and every reported score — is independent of the
  /// worker count.  The winner can never abort: its running max is bounded
  /// by its final cost, which is at most the incumbent.
  bool early_exit = true;
};

/// Score of one evaluated candidate, in candidate order.
struct AssignmentCandidateScore {
  std::string label;
  double max_cost = 0.0;
  double mean_cost = 0.0;
  /// True when early exit abandoned this candidate; max_cost/mean_cost are
  /// then +infinity (the candidate was already worse than the incumbent).
  bool aborted = false;
  /// True when the candidate violated the per-node memory budget or the
  /// per-node NVM checkpoint budget; costs are +infinity and
  /// peak_memory_bytes / peak_nvm_bytes record the residencies.
  bool over_budget = false;
  /// Peak per-node residency in bytes (0 when the budget is disabled).
  std::size_t peak_memory_bytes = 0;
  /// Peak per-node checkpoint image in bytes (0 when NVM gating is off).
  std::size_t peak_nvm_bytes = 0;
};

struct AssignmentSearchResult {
  Assignment best;
  std::size_t best_index = 0;
  double best_max_cost = 0.0;
  double best_mean_cost = 0.0;
  /// All candidate scores in generation order (independent of thread count).
  std::vector<AssignmentCandidateScore> candidates;
};

/// Runs the portfolio search.  When `obs` is non-null, publishes
/// microdeep.search.{candidates,best_index,best_max_cost} gauges.
AssignmentSearchResult search_assignment(
    const UnitGraph& graph, const WsnTopology& wsn,
    const AssignmentSearchOptions& opts = {},
    obs::Observability* obs = nullptr);

}  // namespace zeiot::microdeep
