// Departure protocol (section III-B): safe leaves, Algorithm 2 replacement,
// content preservation, message bounds, and shrink-to-empty edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

TEST(Leave, LastNodeLeavesEmptyOverlay) {
  Overlay o(1);
  EXPECT_TRUE(o.overlay->Leave(o.members[0]).ok());
  EXPECT_EQ(o.overlay->size(), 0u);
}

TEST(Leave, TwoNodesChildLeaves) {
  Overlay o(2);
  Rng rng(2);
  o.Grow(2, &rng);
  ASSERT_TRUE(o.overlay->Insert(o.members[0], 500).ok());
  PeerId child = o.members[1];
  EXPECT_TRUE(o.overlay->Leave(child).ok());
  EXPECT_EQ(o.overlay->size(), 1u);
  // The survivor owns the whole domain and all data.
  const BatonNode& root = o.overlay->node(o.overlay->root());
  EXPECT_EQ(root.range.lo, o.overlay->config().domain_lo);
  EXPECT_EQ(root.range.hi, o.overlay->config().domain_hi);
  EXPECT_EQ(o.overlay->total_keys(), 1u);
  o.overlay->CheckInvariants();
}

TEST(Leave, RootLeavesViaReplacement) {
  Overlay o(3);
  Rng rng(3);
  o.Grow(20, &rng);
  PeerId old_root = o.overlay->root();
  EXPECT_TRUE(o.overlay->Leave(old_root).ok());
  EXPECT_EQ(o.overlay->size(), 19u);
  EXPECT_NE(o.overlay->root(), kNullPeer);
  EXPECT_NE(o.overlay->root(), old_root);
  o.overlay->CheckInvariants();
}

TEST(Leave, InternalNodeReplacedKeepsData) {
  Overlay o(4);
  Rng rng(4);
  o.Grow(30, &rng);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  // Pick an internal node.
  PeerId internal = kNullPeer;
  for (PeerId m : o.members) {
    if (!o.overlay->node(m).IsLeaf()) {
      internal = m;
      break;
    }
  }
  ASSERT_NE(internal, kNullPeer);
  EXPECT_TRUE(o.overlay->Leave(internal).ok());
  EXPECT_EQ(o.overlay->total_keys(), 300u) << "graceful leave loses no data";
  o.overlay->CheckInvariants();
}

TEST(Leave, DepartedPeerIsUnreachable) {
  Overlay o(5);
  Rng rng(5);
  o.Grow(10, &rng);
  PeerId leaver = o.members[5];
  ASSERT_TRUE(o.overlay->Leave(leaver).ok());
  EXPECT_FALSE(o.overlay->InOverlay(leaver));
  EXPECT_FALSE(o.net.IsAlive(leaver));
  auto r = o.overlay->ExactSearch(leaver, 5);
  EXPECT_FALSE(r.ok());
}

TEST(Leave, ReplacementSearchDescends) {
  // Algorithm 2 "always goes down": replacement hop count stays below the
  // paper's O(log N) bound.
  Overlay o(6);
  Rng rng(6);
  o.Grow(512, &rng);
  double logn = std::log2(512.0);
  for (int i = 0; i < 40; ++i) {
    // Leave an internal node to force a replacement.
    PeerId internal = kNullPeer;
    for (PeerId m : o.members) {
      if (!o.overlay->node(m).IsLeaf()) {
        internal = m;
        break;
      }
    }
    ASSERT_NE(internal, kNullPeer);
    auto before = o.net.Snapshot();
    ASSERT_TRUE(o.overlay->Leave(internal).ok());
    o.RemoveMember(internal);
    uint64_t search = net::Network::DeltaOfType(
        before, o.net.Snapshot(), net::MsgType::kReplacementForward);
    EXPECT_LE(search, static_cast<uint64_t>(3 * logn));
  }
  o.overlay->CheckInvariants();
}

TEST(Leave, TotalCostWithinPaperBound) {
  // "the maximum number of messages required to update routing tables to
  // reflect changes is 8 log N" (plus the replacement search).
  Overlay o(7);
  Rng rng(7);
  o.Grow(256, &rng);
  double logn = std::log2(256.0);
  for (int i = 0; i < 50; ++i) {
    size_t idx = rng.NextBelow(o.members.size());
    auto before = o.net.Snapshot();
    ASSERT_TRUE(o.overlay->Leave(o.members[idx]).ok());
    o.members.erase(o.members.begin() + static_cast<long>(idx));
    uint64_t total = net::Network::Delta(before, o.net.Snapshot());
    EXPECT_LE(total, static_cast<uint64_t>(14 * logn))
        << "leave cost must stay O(log N)";
  }
}

TEST(Leave, ShrinkToSingleNodePreservesAllKeys) {
  Overlay o(8);
  Rng rng(8);
  o.Grow(64, &rng);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  while (o.overlay->size() > 1) {
    std::vector<PeerId> ms = o.overlay->Members();
    PeerId victim = ms[rng.NextBelow(ms.size())];
    ASSERT_TRUE(o.overlay->Leave(victim).ok());
  }
  EXPECT_EQ(o.overlay->total_keys(), 500u);
  PeerId last = o.overlay->Members()[0];
  EXPECT_EQ(o.overlay->node(last).data.size(), 500u);
}

TEST(Leave, DoubleLeaveRejected) {
  Overlay o(9);
  Rng rng(9);
  o.Grow(5, &rng);
  PeerId v = o.members[3];
  ASSERT_TRUE(o.overlay->Leave(v).ok());
  EXPECT_FALSE(o.overlay->Leave(v).ok());
}

// Parameterized churn: alternating joins and leaves at several ratios.
class ChurnTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ChurnTest, InvariantsSurviveChurn) {
  auto [leave_pct, seed] = GetParam();
  Overlay o(seed);
  Rng rng(Mix64(seed ^ 0xc0));
  o.Grow(100, &rng);
  for (int i = 0; i < 300; ++i) {
    bool leave = rng.NextBool(leave_pct / 100.0) && o.overlay->size() > 4;
    if (leave) {
      size_t idx = rng.NextBelow(o.members.size());
      ASSERT_TRUE(o.overlay->Leave(o.members[idx]).ok());
      o.members.erase(o.members.begin() + static_cast<long>(idx));
    } else {
      auto joined =
          o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
      ASSERT_TRUE(joined.ok());
      o.members.push_back(joined.value());
    }
    if (i % 25 == 0) o.overlay->CheckInvariants();
  }
  o.overlay->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Mix, ChurnTest,
    ::testing::Combine(::testing::Values(30, 50, 70),
                       ::testing::Values(11u, 22u)));

}  // namespace
}  // namespace baton
