// Join protocol (section III-A): placement, balance, message bounds,
// adjacency and table construction. Parameterized sweeps check the
// structural invariants at many sizes and seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

TEST(Join, SecondNodeBecomesChildOfRoot) {
  Overlay o(1);
  Rng rng(1);
  o.Grow(2, &rng);
  const BatonNode& root = o.overlay->node(o.overlay->root());
  EXPECT_TRUE(root.left_child.valid() != root.right_child.valid() ||
              root.HasBothChildren());
  o.overlay->CheckInvariants();
}

TEST(Join, SplitsRangeWithChild) {
  Overlay o(2);
  Rng rng(2);
  o.Grow(2, &rng);
  const BatonNode& a = o.overlay->node(o.members[0]);
  const BatonNode& b = o.overlay->node(o.members[1]);
  // The two ranges partition the domain.
  Key lo = std::min(a.range.lo, b.range.lo);
  Key hi = std::max(a.range.hi, b.range.hi);
  EXPECT_EQ(lo, o.overlay->config().domain_lo);
  EXPECT_EQ(hi, o.overlay->config().domain_hi);
  EXPECT_EQ(a.range.Width() + b.range.Width(), hi - lo);
}

TEST(Join, SplitsContentByMedian) {
  Overlay o(3);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(o.overlay->Insert(o.members[0], i * 1000).ok());
  }
  o.Grow(2, &rng);
  const BatonNode& a = o.overlay->node(o.members[0]);
  const BatonNode& b = o.overlay->node(o.members[1]);
  EXPECT_EQ(a.data.size() + b.data.size(), 100u);
  EXPECT_NEAR(static_cast<double>(a.data.size()), 50.0, 1.0);
}

TEST(Join, JoinerAlwaysBecomesLeaf) {
  Overlay o(4);
  Rng rng(4);
  for (int i = 1; i < 50; ++i) {
    auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
    ASSERT_TRUE(joined.ok());
    o.members.push_back(joined.value());
    EXPECT_TRUE(o.overlay->node(joined.value()).IsLeaf());
  }
}

TEST(Join, AcceptorHadFullTables) {
  // Theorem 1 precondition: every accepting parent has full tables at accept
  // time; verify post hoc that parents of all nodes satisfy Theorem 1.
  Overlay o(5);
  Rng rng(5);
  o.Grow(128, &rng);
  for (PeerId m : o.members) {
    const BatonNode& n = o.overlay->node(m);
    if (n.left_child.valid() || n.right_child.valid()) {
      EXPECT_TRUE(o.overlay->TablesFull(m)) << n.pos;
    }
  }
}

TEST(Join, HeightStaysWithinBalancedBound) {
  Overlay o(6);
  Rng rng(6);
  for (size_t target : {16u, 64u, 256u, 1024u}) {
    o.Grow(target, &rng);
    double bound = 1.44 * std::log2(static_cast<double>(target) + 1) + 2;
    EXPECT_LE(o.overlay->Height(), static_cast<int>(bound)) << target;
  }
  o.overlay->CheckInvariants();
}

TEST(Join, SearchCostIsLogarithmic) {
  Overlay o(7);
  Rng rng(7);
  o.Grow(1024, &rng);
  auto before = o.net.Snapshot();
  auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
  ASSERT_TRUE(joined.ok());
  uint64_t find_msgs = net::Network::DeltaOfType(before, o.net.Snapshot(),
                                                 net::MsgType::kJoinForward);
  // The paper: much lower than O(log N) = 10; allow generous slack.
  EXPECT_LE(find_msgs, 20u);
}

TEST(Join, UpdateCostWithinPaperBound) {
  // "the maximum number of messages required for updating routing tables is
  // 2L1 + 2L2 + 2L2 + 1 < 6logN".
  Overlay o(8);
  Rng rng(8);
  o.Grow(512, &rng);
  double logn = std::log2(512.0);
  for (int i = 0; i < 50; ++i) {
    auto before = o.net.Snapshot();
    auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
    ASSERT_TRUE(joined.ok());
    o.members.push_back(joined.value());
    auto after = o.net.Snapshot();
    uint64_t update = net::Network::Delta(before, after) -
                      net::Network::DeltaOfType(before, after,
                                                net::MsgType::kJoinForward);
    EXPECT_LE(update, static_cast<uint64_t>(8 * logn))
        << "join update cost should stay O(log N)";
  }
}

TEST(Join, NewNodeTablesMatchOccupancy) {
  Overlay o(9);
  Rng rng(9);
  o.Grow(200, &rng);
  // CheckInvariants already validates all tables; spot-check the last joiner
  // explicitly for readability.
  const BatonNode& y = o.overlay->node(o.members.back());
  for (bool left : {true, false}) {
    for (int i = 0; i < y.TableSize(left); ++i) {
      Position q = RoutingTable::SlotPosition(y.pos, left, i);
      PeerId occ = o.overlay->OccupantOf(q);
      NodeRef e = o.overlay->TableEntry(y.id, left, i);
      EXPECT_EQ(e.valid(), occ != kNullPeer) << q;
      if (occ != kNullPeer) {
        EXPECT_EQ(e.peer, occ);
      }
    }
  }
  o.overlay->CheckInvariants();
}

TEST(Join, InvalidContactRejected) {
  Overlay o(10);
  auto r = o.overlay->Join(static_cast<PeerId>(12345));
  EXPECT_FALSE(r.ok());
}

TEST(Join, AdjacencyChainGrowsCorrectly) {
  Overlay o(11);
  Rng rng(11);
  o.Grow(64, &rng);
  // Members() sorts by in-order position; the adjacency chain must agree and
  // ranges must ascend (verified fully by CheckInvariants).
  std::vector<PeerId> order = o.overlay->Members();
  Key prev_hi = o.overlay->config().domain_lo;
  for (PeerId m : order) {
    EXPECT_EQ(o.overlay->node(m).range.lo, prev_hi);
    prev_hi = o.overlay->node(m).range.hi;
  }
  EXPECT_EQ(prev_hi, o.overlay->config().domain_hi);
}

// Parameterized: growth with per-step invariant checking across seeds.
class JoinGrowthTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinGrowthTest, InvariantsHoldThroughoutGrowth) {
  Overlay o(GetParam());
  Rng rng(Mix64(GetParam()));
  for (int i = 1; i < 150; ++i) {
    auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
    ASSERT_TRUE(joined.ok());
    o.members.push_back(joined.value());
    if (i % 10 == 0) o.overlay->CheckInvariants();
  }
  o.overlay->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinGrowthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Parameterized: sequential join patterns (always-same-contact) that stress
// the forwarding logic.
class JoinPatternTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(JoinPatternTest, ContactPatternsKeepBalance) {
  auto [pattern, seed] = GetParam();
  Overlay o(seed);
  Rng rng(seed);
  for (int i = 1; i < 100; ++i) {
    PeerId contact = o.members[0];
    switch (pattern) {
      case 0: contact = o.members[0]; break;                       // root
      case 1: contact = o.members.back(); break;                   // newest
      case 2: contact = o.members[rng.NextBelow(o.members.size())]; break;
      default: break;
    }
    auto joined = o.overlay->Join(contact);
    ASSERT_TRUE(joined.ok());
    o.members.push_back(joined.value());
  }
  o.overlay->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, JoinPatternTest,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(3u, 7u)));

}  // namespace
}  // namespace baton
