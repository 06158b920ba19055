// Network restructuring (section III-E), driven through the load balancer's
// forced joins and departures: chain mechanics, order preservation, the "no
// data movement" claim, and behaviour at the edges of the tree.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

BatonConfig Lb(size_t threshold) {
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_threshold = threshold;
  return cfg;
}

// Drives the network until at least one forced restructure happened.
void ForceRestructures(Overlay* o, Rng* rng, Key hot_lo, Key hot_hi,
                       int min_shifts) {
  int guard = 60000;
  while (o->overlay->shift_sizes().total_count() <
             static_cast<uint64_t>(min_shifts) &&
         guard-- > 0) {
    ASSERT_TRUE(o->overlay
                    ->Insert(o->members[rng->NextBelow(o->members.size())],
                             rng->UniformInt(hot_lo, hot_hi))
                    .ok());
  }
  ASSERT_GE(o->overlay->shift_sizes().total_count(),
            static_cast<uint64_t>(min_shifts))
      << "hot inserts must eventually force recruits";
}

TEST(Restructure, PreservesInOrderRanges) {
  Overlay o(1, Lb(40));
  Rng rng(1);
  o.Grow(48, &rng);
  ForceRestructures(&o, &rng, 5000, 90000, 5);
  // CheckInvariants validates contiguity + ordering; assert it explicitly
  // for the restructured network.
  o.overlay->CheckInvariants();
  std::vector<PeerId> order = o.overlay->Members();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LT(o.overlay->node(order[i]).range.lo,
              o.overlay->node(order[i + 1]).range.lo);
  }
}

TEST(Restructure, NoDataMovedByShifting) {
  // "No data movement is required due to network restructuring": nodes carry
  // their bags; only the two endpoints of a recruit move keys. Verify that
  // the per-peer key multiset union is invariant across a burst of forced
  // restructures.
  Overlay o(2, Lb(40));
  Rng rng(2);
  o.Grow(48, &rng);
  ForceRestructures(&o, &rng, 5000, 90000, 3);
  uint64_t before_total = o.overlay->total_keys();
  std::map<Key, int> before;
  for (PeerId m : o.overlay->Members()) {
    for (Key k : o.overlay->node(m).data.SortedKeys()) ++before[k];
  }
  ForceRestructures(&o, &rng, 5000, 90000,
                    static_cast<int>(o.overlay->shift_sizes().total_count()) + 3);
  std::map<Key, int> after;
  for (PeerId m : o.overlay->Members()) {
    for (Key k : o.overlay->node(m).data.SortedKeys()) ++after[k];
  }
  EXPECT_GE(o.overlay->total_keys(), before_total);
  // Every key present before is still present (inserts only added).
  for (const auto& [k, c] : before) {
    EXPECT_GE(after[k], c) << "key " << k << " lost by restructuring";
  }
}

TEST(Restructure, RecruitEndsAdjacentToOverloadedNode) {
  // After a recruit, the moved peer must sit in-order right next to the
  // node it relieved (it took the lower half of its range).
  Overlay o(3, Lb(50));
  Rng rng(3);
  o.Grow(32, &rng);
  ForceRestructures(&o, &rng, 1000, 50000, 1);
  o.overlay->CheckInvariants();  // adjacency + range contiguity prove it
}

TEST(Restructure, HotLowEndOfDomain) {
  // Force restructuring toward the extreme left edge of the tree: chains
  // must terminate even when one walk direction runs off the end.
  Overlay o(4, Lb(30));
  Rng rng(4);
  o.Grow(40, &rng);
  ForceRestructures(&o, &rng, 1, 2000, 4);
  o.overlay->CheckInvariants();
}

TEST(Restructure, HotHighEndOfDomain) {
  Overlay o(5, Lb(30));
  Rng rng(5);
  o.Grow(40, &rng);
  ForceRestructures(&o, &rng, 999990000, 999999998, 4);
  o.overlay->CheckInvariants();
}

TEST(Restructure, TinyNetworkRecruit) {
  // Recruiting with only a handful of nodes exercises the degenerate chain
  // endpoints (no adjacent on one side, root in the chain).
  Overlay o(6, Lb(25));
  Rng rng(6);
  o.Grow(5, &rng);
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1000, 200000))
                    .ok());
  }
  o.overlay->CheckInvariants();
  EXPECT_EQ(o.overlay->total_keys(), 600u);
}

TEST(Restructure, BalanceHeldAfterEveryBurst) {
  Overlay o(7, Lb(35));
  Rng rng(7);
  o.Grow(64, &rng);
  for (int burst = 0; burst < 10; ++burst) {
    Key lo = rng.UniformInt(1, 900000000);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(o.overlay
                      ->Insert(o.members[rng.NextBelow(o.members.size())],
                               lo + rng.UniformInt(0, 1000000))
                      .ok());
    }
    o.overlay->CheckInvariants();  // includes the Definition-1 balance check
  }
}

TEST(Restructure, ShiftMessagesStayLogarithmicPerMover) {
  // "For each such node, adjusting the routing table requires O(log N)
  // effort": total restructure traffic / total movers ~ O(log N).
  Overlay o(8, Lb(40));
  Rng rng(8);
  o.Grow(128, &rng);
  auto before = o.net.Snapshot();
  ForceRestructures(&o, &rng, 1000, 100000, 12);
  auto after = o.net.Snapshot();
  uint64_t movers = o.overlay->shift_sizes().total_count() *
                    static_cast<uint64_t>(o.overlay->shift_sizes().Mean());
  uint64_t shift_msgs =
      net::Network::DeltaOfType(before, after, net::MsgType::kTableUpdate) +
      net::Network::DeltaOfType(before, after,
                                net::MsgType::kRestructureShift);
  ASSERT_GT(movers, 0u);
  EXPECT_LE(shift_msgs / movers, static_cast<uint64_t>(
      6 * std::log2(static_cast<double>(o.overlay->size())) + 12));
}

}  // namespace
}  // namespace baton
