#include <gtest/gtest.h>

#include "mac/channel.hpp"

namespace zeiot::mac {
namespace {

TEST(Channel, LogsTransmissions) {
  Channel ch;
  ch.add(0.0, 1.0, 1, "wlan", false);
  ch.add(2.0, 0.5, 2, "dummy", false);
  ASSERT_EQ(ch.log().size(), 2u);
  EXPECT_EQ(ch.log()[0].kind, "wlan");
  EXPECT_DOUBLE_EQ(ch.log()[1].end, 2.5);
}

TEST(Channel, RejectsOutOfOrder) {
  Channel ch;
  ch.add(5.0, 1.0, 1, "wlan", false);
  EXPECT_THROW(ch.add(4.0, 1.0, 2, "wlan", false), Error);
}

TEST(Channel, DetectsCollisions) {
  Channel ch;
  ch.add(0.0, 1.0, 1, "wlan", true);
  ch.add(0.5, 1.0, 2, "wlan", true);
  EXPECT_TRUE(ch.log()[0].collided);
  EXPECT_TRUE(ch.log()[1].collided);
}

TEST(Channel, NonInterferingOverlapDoesNotCollide) {
  Channel ch;
  ch.add(0.0, 1.0, 1, "wlan", false);
  ch.add(0.5, 1.0, 2, "backscatter", false);
  EXPECT_FALSE(ch.log()[0].collided);
  EXPECT_FALSE(ch.log()[1].collided);
}

TEST(Channel, DisjointNoCollision) {
  Channel ch;
  ch.add(0.0, 1.0, 1, "wlan", true);
  ch.add(1.0, 1.0, 2, "wlan", true);  // back-to-back: no overlap
  EXPECT_FALSE(ch.log()[0].collided);
  EXPECT_FALSE(ch.log()[1].collided);
}

TEST(Channel, BusyDuring) {
  Channel ch;
  ch.add(1.0, 1.0, 1, "wlan", false);
  EXPECT_TRUE(ch.busy_during(1.5, 1.6));
  EXPECT_TRUE(ch.busy_during(0.5, 1.1));
  EXPECT_FALSE(ch.busy_during(2.0, 3.0));
  EXPECT_FALSE(ch.busy_during(0.0, 1.0));
}

TEST(Channel, BusyTimePerKind) {
  Channel ch;
  ch.add(0.0, 1.0, 1, "wlan", false);
  ch.add(2.0, 0.5, 0, "dummy", false);
  ch.add(3.0, 1.0, 1, "wlan", false);
  EXPECT_DOUBLE_EQ(ch.busy_time("wlan", 10.0), 2.0);
  EXPECT_DOUBLE_EQ(ch.busy_time("dummy", 10.0), 0.5);
  // Horizon truncation.
  EXPECT_DOUBLE_EQ(ch.busy_time("wlan", 3.5), 1.5);
}

TEST(Channel, UtilizationMergesOverlaps) {
  Channel ch;
  ch.add(0.0, 2.0, 1, "wlan", false);
  ch.add(1.0, 2.0, 2, "backscatter", false);  // overlaps 1s
  EXPECT_NEAR(ch.utilization(10.0), 0.3, 1e-9);
}

TEST(Channel, UtilizationEmptyIsZero) {
  Channel ch;
  EXPECT_DOUBLE_EQ(ch.utilization(5.0), 0.0);
  EXPECT_THROW(ch.utilization(0.0), Error);
}

}  // namespace
}  // namespace zeiot::mac
