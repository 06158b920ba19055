// Load balancing (section IV-D) and network restructuring (section III-E):
// adjacent-node balancing, remote recruiting with forced joins, shift-size
// behaviour, and data conservation through every mechanism.
#include <gtest/gtest.h>

#include <algorithm>

#include "baton/baton.h"
#include "fixtures.h"
#include "util/zipf.h"

namespace baton {
namespace {

using fixtures::Overlay;

BatonConfig LbConfig(size_t threshold) {
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_threshold = threshold;
  return cfg;
}

TEST(LoadBalance, DisabledByDefault) {
  Overlay o(1);
  Rng rng(1);
  o.Grow(16, &rng);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(o.overlay->Insert(o.members[0], 10 + i % 50).ok());
  }
  EXPECT_EQ(o.overlay->load_balance_ops(), 0u);
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, AdjacentBalanceSplitsLoad) {
  Overlay o(2, LbConfig(100));
  Rng rng(2);
  o.Grow(16, &rng);
  // Hammer one node's range; adjacent balancing must spread the keys.
  PeerId target = o.overlay->Members()[8];
  Range r = o.overlay->node(target).range;
  for (int i = 0; i < 400; ++i) {
    Key k = r.lo + rng.UniformInt(0, r.Width() - 1);
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  EXPECT_GT(o.overlay->load_balance_ops(), 0u);
  EXPECT_EQ(o.overlay->total_keys(), 400u) << "balancing moves, never drops";
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, SkewTriggersMoreThanUniform) {
  // Threshold well above the uniform average (6000/64 ~ 94): only the skewed
  // stream should trip it regularly.
  uint64_t uniform_ops = 0, zipf_ops = 0;
  for (bool zipf : {false, true}) {
    Overlay o(3, LbConfig(250));
    Rng rng(3);
    o.Grow(64, &rng);
    ZipfGenerator z(1 << 16, 1.0);
    for (int i = 0; i < 6000; ++i) {
      Key k = zipf ? static_cast<Key>(z.Sample(&rng)) * 15000
                   : rng.UniformInt(1, 999999999);
      k = std::max<Key>(1, std::min<Key>(k, 999999998));
      ASSERT_TRUE(
          o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k)
              .ok());
    }
    o.overlay->CheckInvariants();
    (zipf ? zipf_ops : uniform_ops) = o.overlay->load_balance_ops();
  }
  EXPECT_GT(zipf_ops, uniform_ops)
      << "skewed data must trigger load balancing more often";
}

TEST(LoadBalance, BoundsMaxLoadUnderSkew) {
  Overlay o(4, LbConfig(80));
  Rng rng(4);
  o.Grow(64, &rng);
  // All inserts hit one narrow hot range.
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1000, 2000))
                    .ok());
  }
  size_t max_load = 0;
  for (PeerId m : o.overlay->Members()) {
    max_load = std::max(max_load, o.overlay->node(m).data.size());
  }
  // Without balancing one node would hold ~4000 keys.
  EXPECT_LT(max_load, 1000u) << "hot range must be spread across recruits";
  EXPECT_GT(o.overlay->load_balance_ops(), 5u);
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, RestructuresRecordShiftSizes) {
  Overlay o(5, LbConfig(50));
  Rng rng(5);
  o.Grow(64, &rng);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1000, 5000))
                    .ok());
  }
  const Histogram& h = o.overlay->shift_sizes();
  ASSERT_GT(h.total_count(), 0u) << "hot range must force recruits";
  EXPECT_GE(h.Buckets().front().first, 1);
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, ShiftSizesDecayRoughlyExponentially) {
  // Fig 8(h): most shifts are short; the tail decays fast. Check that the
  // median shift stays small and the mass at or below it dominates.
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_factor = 2.2;
  Overlay o(6, cfg);
  Rng rng(6);
  o.Grow(128, &rng);
  ZipfGenerator z(1 << 16, 1.0);
  for (int i = 0; i < 16000; ++i) {
    Key k = static_cast<Key>(z.Sample(&rng)) * 15000 + 1;
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  const Histogram& h = o.overlay->shift_sizes();
  ASSERT_GT(h.total_count(), 10u);
  EXPECT_LE(h.Percentile(0.5), 12)
      << "typical shifts must stay far below the network size";
  EXPECT_LE(h.Percentile(0.9), 3 * h.Percentile(0.5) + 8)
      << "the tail must decay quickly";
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, AdaptiveThresholdFollowsAverage) {
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_factor = 2.0;
  Overlay o(7, cfg);
  Rng rng(7);
  o.Grow(32, &rng);
  // Uniform stream: loads track the growing average, few LB ops.
  for (int i = 0; i < 6400; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  size_t max_load = 0;
  for (PeerId m : o.overlay->Members()) {
    max_load = std::max(max_load, o.overlay->node(m).data.size());
  }
  double avg = 6400.0 / 32.0;
  EXPECT_LE(static_cast<double>(max_load), 3.0 * avg);
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, NoKeysLostThroughRecruiting) {
  Overlay o(8, LbConfig(30));
  Rng rng(8);
  o.Grow(48, &rng);
  uint64_t inserted = 0;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(100000, 200000))  // hot range
                    .ok());
    ++inserted;
  }
  EXPECT_EQ(o.overlay->total_keys(), inserted);
  // Every inserted key remains findable.
  for (int i = 0; i < 200; ++i) {
    Key k = rng.UniformInt(100000, 200000);
    auto r = o.overlay->ExactSearch(
        o.overlay->Members()[0], k);
    ASSERT_TRUE(r.ok());
  }
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, PureDuplicateHotspotDoesNotCrash) {
  // 101 distinct values hammered 5000 times: ranges cannot be subdivided
  // below value granularity; load balancing must give up gracefully rather
  // than corrupt the structure.
  Overlay o(28, LbConfig(30));
  Rng rng(28);
  o.Grow(48, &rng);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(100, 200))
                    .ok());
  }
  EXPECT_EQ(o.overlay->total_keys(), 5000u);
  o.overlay->CheckInvariants();
}

TEST(LoadBalance, ChurnDuringLoadBalancingKeepsInvariants) {
  Overlay o(9, LbConfig(50));
  Rng rng(9);
  o.Grow(64, &rng);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(o.overlay
                      ->Insert(o.members[rng.NextBelow(o.members.size())],
                               rng.UniformInt(1000, 9000))
                      .ok());
    }
    // Interleave churn.
    auto joined =
        o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
    ASSERT_TRUE(joined.ok());
    o.members.push_back(joined.value());
    std::vector<PeerId> ms = o.overlay->Members();
    PeerId victim = ms[rng.NextBelow(ms.size())];
    ASSERT_TRUE(o.overlay->Leave(victim).ok());
    o.members = o.overlay->Members();
    o.overlay->CheckInvariants();
  }
}

// Parameterized: different thresholds all preserve structure + data.
class LbThresholdTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LbThresholdTest, StructureSurvivesHotRange) {
  Overlay o(10 + GetParam(), LbConfig(GetParam()));
  Rng rng(GetParam());
  o.Grow(48, &rng);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(50000, 60000))
                    .ok());
  }
  EXPECT_EQ(o.overlay->total_keys(), 3000u);
  o.overlay->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LbThresholdTest,
                         ::testing::Values(20, 40, 80, 160));

}  // namespace
}  // namespace baton
