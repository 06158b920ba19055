// Regression tests for the O(1) incrementally maintained Height(): it sits
// inside every routing hop budget (max_hops_factor * (height + 1)), so it
// must track the true maximum occupied level exactly through every kind of
// structural transition -- joins, graceful leaves (including replacement
// protocols and vacancy-fill restructuring), abrupt failures with recovery,
// load-balancing forced joins, and full shrink-to-empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

/// Ground truth: the maximum occupied level, recomputed from scratch.
int BruteHeight(const BatonNetwork& bn) {
  int h = -1;
  for (PeerId m : bn.Members()) {
    h = std::max(h, static_cast<int>(bn.node(m).pos.level));
  }
  return h;
}

TEST(Height, TracksJoins) {
  Overlay o(1);
  EXPECT_EQ(o.overlay->Height(), 0);
  Rng rng(1);
  for (size_t n = 2; n <= 128; ++n) {
    o.Grow(n, &rng);
    ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay)) << "n=" << n;
  }
}

TEST(Height, TracksLeavesDownToEmpty) {
  Overlay o(2);
  Rng rng(2);
  o.Grow(100, &rng);
  while (o.overlay->size() > 1) {
    std::vector<PeerId> ms = o.overlay->Members();
    PeerId victim = ms[rng.NextBelow(ms.size())];
    ASSERT_TRUE(o.overlay->Leave(victim).ok());
    ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay))
        << "size=" << o.overlay->size();
  }
  EXPECT_EQ(o.overlay->Height(), 0);
  // The final departure empties the overlay: height returns to the
  // bootstrap-less sentinel.
  ASSERT_TRUE(o.overlay->Leave(o.overlay->Members()[0]).ok());
  EXPECT_EQ(o.overlay->size(), 0u);
  EXPECT_EQ(o.overlay->Height(), -1);
}

TEST(Height, TracksJoinLeaveChurn) {
  Overlay o(3);
  Rng rng(3);
  o.Grow(64, &rng);
  for (int round = 0; round < 300; ++round) {
    if (rng.NextBool(0.5)) {
      auto joined =
          o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
      ASSERT_TRUE(joined.ok());
      o.members.push_back(joined.value());
    } else if (o.overlay->size() > 4) {
      std::vector<PeerId> ms = o.overlay->Members();
      ASSERT_TRUE(o.overlay->Leave(ms[rng.NextBelow(ms.size())]).ok());
      o.members = o.overlay->Members();
    }
    ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay))
        << "round " << round;
  }
  o.overlay->CheckInvariants();
}

TEST(Height, TracksFailureRecovery) {
  Overlay o(4);
  Rng rng(4);
  o.Grow(48, &rng);
  for (int round = 0; round < 20; ++round) {
    std::vector<PeerId> ms = o.overlay->Members();
    o.overlay->Fail(ms[rng.NextBelow(ms.size())]);
    ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
    ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay))
        << "round " << round;
    // Keep the overlay from shrinking away.
    auto joined = o.overlay->Join(o.overlay->Members()[0]);
    ASSERT_TRUE(joined.ok());
    ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay));
  }
  o.overlay->CheckInvariants();
}

TEST(Height, TracksLoadBalanceRestructuring) {
  // Forced joins / vacancy chains relocate whole runs of occupants
  // (RelocateNodes unindexes and reindexes every mover); the level counts
  // must survive the round trip.
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_threshold = 60;
  Overlay o(5, cfg);
  Rng rng(5);
  o.Grow(32, &rng);
  uint64_t before = o.overlay->shift_sizes().total_count();
  // Hammer one narrow region so adjacent balancing and forced joins fire.
  for (int i = 0; i < 3000; ++i) {
    Key k = 500000000 + rng.UniformInt(0, 20000);
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
    if (i % 50 == 0) {
      ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay)) << "i=" << i;
    }
  }
  EXPECT_GT(o.overlay->shift_sizes().total_count(), before)
      << "test must actually exercise restructuring";
  ASSERT_EQ(o.overlay->Height(), BruteHeight(*o.overlay));
  o.overlay->CheckInvariants();
}

}  // namespace
}  // namespace baton
