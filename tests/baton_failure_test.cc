// Failure handling (sections III-C/III-D): abrupt failures, fault-tolerant
// routing around dead peers, parent-driven recovery, and mass failures.
#include <gtest/gtest.h>

#include <cmath>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

TEST(Failure, RoutingDetoursAroundDeadPeer) {
  Overlay o(1);
  Rng rng(1);
  o.Grow(64, &rng);
  for (int i = 0; i < 640; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  // Fail a random leaf (its range's keys are lost; others stay reachable).
  PeerId victim = kNullPeer;
  for (PeerId m : o.members) {
    if (o.overlay->node(m).IsLeaf()) {
      victim = m;
      break;
    }
  }
  ASSERT_NE(victim, kNullPeer);
  Range dead_range = o.overlay->node(victim).range;
  o.overlay->Fail(victim);

  int routed = 0, attempted = 0;
  for (PeerId from : o.Alive()) {
    for (int q = 0; q < 5; ++q) {
      Key k = rng.UniformInt(1, 999999999);
      if (dead_range.Contains(k)) continue;  // unowned while unrecovered
      ++attempted;
      auto r = o.overlay->ExactSearch(from, k);
      if (r.ok()) ++routed;
    }
  }
  EXPECT_EQ(routed, attempted)
      << "queries outside the failed range must still route";
}

TEST(Failure, DeadProbesAreCharged) {
  Overlay o(2);
  Rng rng(2);
  o.Grow(64, &rng);
  PeerId victim = o.members[20];
  Range dead_range = o.overlay->node(victim).range;
  o.overlay->Fail(victim);
  auto before = o.net.Snapshot();
  int hits = 0;
  for (int q = 0; q < 200; ++q) {
    Key k = rng.UniformInt(1, 999999999);
    if (dead_range.Contains(k)) continue;
    auto r = o.overlay->ExactSearch(
        o.Alive()[rng.NextBelow(o.Alive().size())], k);
    if (r.ok()) ++hits;
  }
  EXPECT_GT(hits, 0);
  // At least some queries should have paid a timeout against the dead peer.
  EXPECT_GT(net::Network::DeltaOfType(before, o.net.Snapshot(),
                                      net::MsgType::kDeadProbe),
            0u);
}

TEST(Failure, RecoveryRestoresInvariants) {
  Overlay o(3);
  Rng rng(3);
  o.Grow(100, &rng);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  PeerId victim = o.members[37];
  size_t victim_keys = o.overlay->node(victim).data.size();
  o.overlay->Fail(victim);
  ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
  o.RemoveMember(victim);
  EXPECT_EQ(o.overlay->size(), 99u);
  EXPECT_EQ(o.overlay->total_keys(), 1000u - victim_keys)
      << "only the failed node's keys are lost";
  o.overlay->CheckInvariants();
}

TEST(Failure, RootFailureRecovers) {
  Overlay o(4);
  Rng rng(4);
  o.Grow(50, &rng);
  PeerId root = o.overlay->root();
  o.overlay->Fail(root);
  ASSERT_TRUE(o.overlay->RecoverFailure(root).ok());
  o.RemoveMember(root);
  EXPECT_NE(o.overlay->root(), kNullPeer);
  o.overlay->CheckInvariants();
}

TEST(Failure, LeafFailureRecovers) {
  Overlay o(5);
  Rng rng(5);
  o.Grow(40, &rng);
  PeerId leaf = kNullPeer;
  for (PeerId m : o.members) {
    if (o.overlay->node(m).IsLeaf()) leaf = m;
  }
  ASSERT_NE(leaf, kNullPeer);
  o.overlay->Fail(leaf);
  ASSERT_TRUE(o.overlay->RecoverFailure(leaf).ok());
  o.RemoveMember(leaf);
  o.overlay->CheckInvariants();
}

TEST(Failure, MultipleSimultaneousFailuresRecoverable) {
  Overlay o(6);
  Rng rng(6);
  o.Grow(200, &rng);
  // Fail 10% of the network at once.
  std::vector<PeerId> victims;
  for (int i = 0; i < 20; ++i) {
    PeerId v;
    do {
      v = o.members[rng.NextBelow(o.members.size())];
    } while (std::find(victims.begin(), victims.end(), v) != victims.end());
    victims.push_back(v);
  }
  for (PeerId v : victims) o.overlay->Fail(v);
  EXPECT_EQ(o.overlay->pending_failures().size(), 20u);
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  for (PeerId v : victims) o.RemoveMember(v);
  EXPECT_EQ(o.overlay->size(), 180u);
  o.overlay->CheckInvariants();
}

TEST(Failure, SameLevelMassFailureDoesNotPartition) {
  // "even if all nodes at the same level fail, the tree is not partitioned
  // since adjacency links can be used to route across the gap."
  Overlay o(7);
  Rng rng(7);
  o.Grow(127, &rng);  // roughly a full tree of height 6
  int target_level = 3;
  std::vector<PeerId> victims;
  for (PeerId m : o.members) {
    if (static_cast<int>(o.overlay->node(m).pos.level) == target_level) {
      victims.push_back(m);
    }
  }
  ASSERT_FALSE(victims.empty());
  std::vector<Range> dead_ranges;
  for (PeerId v : victims) {
    dead_ranges.push_back(o.overlay->node(v).range);
    o.overlay->Fail(v);
  }
  // Queries for keys owned by live nodes must still succeed from any origin.
  int ok_count = 0, attempts = 0;
  for (int q = 0; q < 300; ++q) {
    Key k = rng.UniformInt(1, 999999999);
    bool dead = false;
    for (const Range& r : dead_ranges) {
      if (r.Contains(k)) dead = true;
    }
    if (dead) continue;
    ++attempts;
    auto res = o.overlay->ExactSearch(
        o.Alive()[rng.NextBelow(o.Alive().size())], k);
    if (res.ok()) ++ok_count;
  }
  ASSERT_GT(attempts, 0);
  EXPECT_EQ(ok_count, attempts);
  // And the whole level is recoverable.
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  for (PeerId v : victims) o.RemoveMember(v);
  o.overlay->CheckInvariants();
}

TEST(Failure, RecoveryCostIsLogarithmic) {
  Overlay o(8);
  Rng rng(8);
  o.Grow(512, &rng);
  double logn = std::log2(512.0);
  for (int i = 0; i < 20; ++i) {
    PeerId victim = o.members[rng.NextBelow(o.members.size())];
    o.overlay->Fail(victim);
    auto before = o.net.Snapshot();
    ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
    o.RemoveMember(victim);
    uint64_t cost = net::Network::Delta(before, o.net.Snapshot());
    EXPECT_LE(cost, static_cast<uint64_t>(20 * logn))
        << "repair must stay O(log N)";
  }
}

TEST(Failure, FailWholeNetworkAndRecover) {
  Overlay o(9);
  Rng rng(9);
  o.Grow(16, &rng);
  // Fail half the members including possibly internal chains.
  for (int i = 0; i < 8; ++i) {
    PeerId v = o.Alive()[rng.NextBelow(o.Alive().size())];
    o.overlay->Fail(v);
  }
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  o.members = o.overlay->Members();
  EXPECT_EQ(o.overlay->size(), 8u);
  o.overlay->CheckInvariants();
}

// Parameterized: recovery under different failure fractions.
class FailureFraction : public ::testing::TestWithParam<int> {};

TEST_P(FailureFraction, RecoverAllRestoresStructure) {
  Overlay o(21);
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  o.Grow(150, &rng);
  int to_fail = 150 * GetParam() / 100;
  std::vector<PeerId> pool = o.members;
  rng.Shuffle(&pool);
  for (int i = 0; i < to_fail; ++i) o.overlay->Fail(pool[static_cast<size_t>(i)]);
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  EXPECT_EQ(o.overlay->size(), 150u - static_cast<size_t>(to_fail));
  o.overlay->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Fractions, FailureFraction,
                         ::testing::Values(5, 10, 20, 35));

}  // namespace
}  // namespace baton
