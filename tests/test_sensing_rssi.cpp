#include <gtest/gtest.h>

#include <cmath>

#include "sensing/rssi/choco.hpp"
#include "sensing/rssi/room_count.hpp"
#include "sensing/rssi/train_car.hpp"

namespace zeiot::sensing::rssi {
namespace {

// -------------------------------------------------------------- Train car --

TrainConfig fast_train() {
  TrainConfig cfg;
  return cfg;
}

TEST(TrainSim, ScenarioShapesConsistent) {
  Rng rng(1);
  const auto sc = simulate_trip(
      fast_train(), {Congestion::Low, Congestion::Medium, Congestion::High},
      rng);
  EXPECT_EQ(sc.people_per_car.size(), 3u);
  EXPECT_EQ(sc.user_positions.size(), sc.user_car.size());
  EXPECT_EQ(sc.user_ref_rssi.size(), sc.user_positions.size());
  EXPECT_EQ(sc.ref_positions.size(), static_cast<std::size_t>(fast_train().refs_per_car * 3));
  for (const auto& row : sc.user_user_rssi) {
    EXPECT_EQ(row.size(), sc.user_positions.size());
  }
}

TEST(TrainSim, CongestionDrivesHeadcount) {
  Rng rng(2);
  const auto sc = simulate_trip(
      fast_train(), {Congestion::Low, Congestion::Medium, Congestion::High},
      rng);
  EXPECT_LT(sc.people_per_car[0], sc.people_per_car[1]);
  EXPECT_LT(sc.people_per_car[1], sc.people_per_car[2]);
}

TEST(TrainSim, RssiSymmetric) {
  Rng rng(3);
  const auto sc = simulate_trip(
      fast_train(), {Congestion::Medium, Congestion::Medium,
                     Congestion::Medium},
      rng);
  for (std::size_t a = 0; a < sc.user_user_rssi.size(); ++a) {
    for (std::size_t b = 0; b < sc.user_user_rssi.size(); ++b) {
      EXPECT_DOUBLE_EQ(sc.user_user_rssi[a][b], sc.user_user_rssi[b][a]);
    }
  }
}

TEST(TrainSim, DoorsAttenuateAcrossCars) {
  // Same-car links must on average be stronger than links crossing two
  // doors, despite body attenuation noise.
  Rng rng(4);
  const auto cfg = fast_train();
  const auto sc = simulate_trip(
      cfg, {Congestion::Low, Congestion::Low, Congestion::Low}, rng);
  double same = 0.0, cross = 0.0;
  int ns = 0, nc = 0;
  for (std::size_t a = 0; a < sc.user_positions.size(); ++a) {
    for (std::size_t b = a + 1; b < sc.user_positions.size(); ++b) {
      if (sc.user_car[a] == sc.user_car[b]) {
        same += sc.user_user_rssi[a][b];
        ++ns;
      } else if (std::abs(sc.user_car[a] - sc.user_car[b]) == 2) {
        cross += sc.user_user_rssi[a][b];
        ++nc;
      }
    }
  }
  ASSERT_GT(ns, 0);
  ASSERT_GT(nc, 0);
  EXPECT_GT(same / ns, cross / nc + cfg.door_loss_db);
}

TEST(TrainSim, RejectsWrongLevelCount) {
  Rng rng(5);
  EXPECT_THROW(simulate_trip(fast_train(), {Congestion::Low}, rng), Error);
}

TEST(TrainPosition, BeatsChanceClearly) {
  Rng rng(6);
  const auto cfg = fast_train();
  std::size_t correct = 0, total = 0;
  for (int t = 0; t < 10; ++t) {
    const auto sc = simulate_trip(
        cfg, {Congestion::Medium, Congestion::Medium, Congestion::Medium},
        rng);
    const auto pos = estimate_positions(cfg, sc);
    for (std::size_t u = 0; u < pos.size(); ++u) {
      ++total;
      if (pos[u].car == sc.user_car[u]) ++correct;
      EXPECT_GE(pos[u].confidence, 0.0);
      EXPECT_LE(pos[u].confidence, 1.0 + 1e-9);
    }
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.6);
}

TEST(TrainPipeline, ReachesPaperBallpark) {
  Rng rng(7);
  const auto res = evaluate_train_pipeline(fast_train(), 12, 25, rng);
  // Paper: 83% car-level positioning, F-measure 0.82 for 3-level
  // congestion.  Accept a generous band around those.
  EXPECT_GT(res.position_accuracy, 0.7);
  EXPECT_GT(res.congestion_macro_f1, 0.6);
}

TEST(TrainEstimator, RequiresTraining) {
  CongestionEstimator est(fast_train());
  Rng rng(8);
  const auto sc = simulate_trip(
      fast_train(), {Congestion::Low, Congestion::Low, Congestion::Low}, rng);
  const auto pos = estimate_positions(fast_train(), sc);
  EXPECT_THROW(est.estimate(sc, pos), Error);
}

// ------------------------------------------------------------- Room count --

RoomConfig fast_room() {
  RoomConfig cfg;
  cfg.max_people = 6;
  return cfg;
}

TEST(RoomSim, MeasurementShapes) {
  Rng rng(10);
  const auto cfg = fast_room();
  const auto m = measure_room(cfg, 3, rng);
  EXPECT_EQ(m.true_count, 3);
  EXPECT_EQ(m.inter_node_rssi.size(),
            static_cast<std::size_t>(cfg.num_nodes * (cfg.num_nodes - 1) / 2));
  EXPECT_EQ(m.surrounding_rssi.size(),
            static_cast<std::size_t>(cfg.num_nodes));
}

TEST(RoomSim, MorePeopleMoreAttenuation) {
  const auto cfg = fast_room();
  const auto base = empty_baseline(cfg);
  Rng rng(11);
  double dev0 = 0.0, dev6 = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto m0 = measure_room(cfg, 0, rng);
    const auto m6 = measure_room(cfg, 6, rng);
    for (std::size_t i = 0; i < base.size(); ++i) {
      dev0 += base[i] - m0.inter_node_rssi[i];
      dev6 += base[i] - m6.inter_node_rssi[i];
    }
  }
  EXPECT_GT(dev6, dev0);
}

TEST(RoomSim, MorePeopleMoreSurroundingPower) {
  const auto cfg = fast_room();
  Rng rng(12);
  double s0 = 0.0, s6 = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    for (double v : measure_room(cfg, 0, rng).surrounding_rssi) s0 += v;
    for (double v : measure_room(cfg, 6, rng).surrounding_rssi) s6 += v;
  }
  EXPECT_GT(s6, s0);
}

TEST(RoomEstimator, FeaturesHaveFixedArity) {
  const auto cfg = fast_room();
  RoomCountEstimator est(cfg);
  Rng rng(13);
  const auto f = est.features(measure_room(cfg, 2, rng));
  EXPECT_EQ(f.size(), 8u);
}

TEST(RoomPipeline, ErrorsBoundedLikePaper) {
  // Paper: ~79% exact accuracy with errors up to two people.
  Rng rng(14);
  const auto res = evaluate_room_pipeline(fast_room(), 30, 10, rng);
  EXPECT_GT(res.exact_accuracy, 0.45);
  EXPECT_GT(res.within_two_accuracy, 0.9);
  EXPECT_LT(res.mean_absolute_error, 1.5);
}

TEST(RoomEstimator, RequiresTraining) {
  const auto cfg = fast_room();
  RoomCountEstimator est(cfg);
  Rng rng(15);
  EXPECT_THROW(est.estimate(measure_room(cfg, 1, rng)), Error);
}

TEST(RoomSim, RejectsNegativePeople) {
  Rng rng(16);
  EXPECT_THROW(measure_room(fast_room(), -1, rng), Error);
}

// ------------------------------------------------------------------ Choco --

TEST(Choco, LineNetworkFloodsInOrder) {
  // 0 - 1 - 2 - 3 chain.
  const std::vector<std::vector<int>> adj{{1}, {0, 2}, {1, 3}, {2}};
  const auto r = run_flood(adj, 0);
  EXPECT_EQ(r.reception_slot, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.flood_slots, 4);  // 3 + 1 retransmission
  EXPECT_GT(r.round_duration_s, 0.0);
  EXPECT_NEAR(r.max_skew_s, 3 * 1.5e-3, 1e-12);
}

TEST(Choco, StarNetworkOneHop) {
  const std::vector<std::vector<int>> adj{{1, 2, 3}, {0}, {0}, {0}};
  const auto r = run_flood(adj, 0);
  EXPECT_EQ(r.reception_slot[1], 1);
  EXPECT_EQ(r.reception_slot[2], 1);
  EXPECT_EQ(r.reception_slot[3], 1);
}

TEST(Choco, UnreachableNodesFlagged) {
  const std::vector<std::vector<int>> adj{{1}, {0}, {}};
  const auto r = run_flood(adj, 0);
  EXPECT_EQ(r.reception_slot[2], -1);
}

TEST(Choco, ConnectivityGraphByRange) {
  const std::vector<Point2D> nodes{{0.0, 0.0}, {1.0, 0.0}, {5.0, 0.0}};
  const auto adj = connectivity_graph(nodes, 1.5);
  EXPECT_EQ(adj[0], (std::vector<int>{1}));
  EXPECT_EQ(adj[1], (std::vector<int>{0}));
  EXPECT_TRUE(adj[2].empty());
}

TEST(Choco, RejectsBadInputs) {
  EXPECT_THROW(run_flood({}, 0), Error);
  EXPECT_THROW(run_flood({{0}}, 5), Error);
  EXPECT_THROW(connectivity_graph({{0.0, 0.0}}, 0.0), Error);
}

TEST(Choco, RoundCoversGridDeployment) {
  // A perimeter deployment like the room simulator's must flood fully.
  RoomConfig cfg;
  std::vector<Point2D> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back({static_cast<double>(i), 0.0});
  }
  const auto adj = connectivity_graph(nodes, 1.2);
  const auto r = run_flood(adj, 3);
  for (int slot : r.reception_slot) EXPECT_GE(slot, 0);
}

// Pinned before the E3 per-car bucketing and the precomputed naive-Bayes
// normalisers: both must leave every estimate bit-identical.
TEST(PinnedDigest, TrainPipelineDefaultConfig) {
  Rng rng(2019);
  const auto res = evaluate_train_pipeline(TrainConfig{}, 12, 200, rng);
  EXPECT_EQ(res.congestion_macro_f1, 0.82116362898870676);
  EXPECT_EQ(res.position_accuracy, 0.87018856163316194);
}

}  // namespace
}  // namespace zeiot::sensing::rssi
