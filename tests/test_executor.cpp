#include "microdeep/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "microdeep/comm_cost.hpp"

namespace zeiot::microdeep {
namespace {

const Rect kArea{0.0, 0.0, 10.0, 10.0};

ml::Network make_cnn(Rng& rng, int in_ch, int grid) {
  ml::Network net;
  net.emplace<ml::Conv2D>(in_ch, 3, 3, 1, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::MaxPool2D>(2);
  net.emplace<ml::Flatten>();
  net.emplace<ml::Dense>(3 * (grid / 2) * (grid / 2), 6, rng);
  net.emplace<ml::ReLU>();
  net.emplace<ml::Dense>(6, 2, rng);
  return net;
}

ml::Tensor random_sample(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  ml::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// The executor's dataflow must reproduce the tensor-level forward pass
/// exactly — this is the deep validation of the unit graph structure.
void expect_matches_network(ml::Network& net, const std::vector<int>& shape,
                            const Assignment& a, const UnitGraph& g,
                            const WsnTopology& wsn, std::uint64_t seed) {
  const ml::Tensor sample = random_sample(shape, seed);
  std::vector<int> batched = shape;
  batched.insert(batched.begin(), 1);
  const ml::Tensor expected =
      net.forward(sample.reshape(batched), /*train=*/false);
  const auto result = execute_distributed(net, g, a, wsn, sample);
  ASSERT_EQ(result.output.shape(), expected.shape());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result.output[i], expected[i], 1e-3)
        << "logit " << i << " diverges";
  }
}

TEST(Executor, MatchesNetworkForwardNearest) {
  Rng rng(1);
  ml::Network net = make_cnn(rng, 2, 6);
  const auto g = UnitGraph::build(net, {2, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  expect_matches_network(net, {2, 6, 6}, a, g, wsn, 11);
}

TEST(Executor, MatchesNetworkForwardCentralized) {
  Rng rng(2);
  ml::Network net = make_cnn(rng, 1, 8);
  const auto g = UnitGraph::build(net, {1, 8, 8});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_centralized(g, wsn, 7);
  expect_matches_network(net, {1, 8, 8}, a, g, wsn, 12);
}

TEST(Executor, MatchesNetworkForwardHeuristic) {
  Rng rng(3);
  ml::Network net = make_cnn(rng, 3, 6);
  const auto g = UnitGraph::build(net, {3, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 5, 5);
  const auto a = assign_balanced_heuristic(g, wsn);
  expect_matches_network(net, {3, 6, 6}, a, g, wsn, 13);
}

TEST(Executor, MatchesAcrossManySamples) {
  Rng rng(4);
  ml::Network net = make_cnn(rng, 2, 6);
  const auto g = UnitGraph::build(net, {2, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    expect_matches_network(net, {2, 6, 6}, a, g, wsn, seed);
  }
}

TEST(Executor, MessageCountMatchesCostModel) {
  Rng rng(5);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  const auto result =
      execute_distributed(net, g, a, wsn, random_sample({1, 6, 6}, 31));
  CommCostOptions opts;
  opts.include_backward = false;
  opts.aggregate_dense = false;  // the executor counts unicast messages
  const auto cost = compute_comm_cost(a, wsn, opts);
  EXPECT_DOUBLE_EQ(result.total_messages, cost.total_messages);
}

TEST(Executor, RejectsWrongSampleShape) {
  Rng rng(9);
  ml::Network net = make_cnn(rng, 1, 6);
  const auto g = UnitGraph::build(net, {1, 6, 6});
  const auto wsn = WsnTopology::grid(kArea, 4, 4);
  const auto a = assign_nearest(g, wsn);
  EXPECT_THROW(
      execute_distributed(net, g, a, wsn, random_sample({1, 5, 6}, 71)),
      Error);
}

}  // namespace
}  // namespace zeiot::microdeep
