// The invariant checker itself is load-bearing for every other test, so
// verify it actually *detects* corruption: each death test injects one
// specific fault into an otherwise healthy overlay and expects the checker
// to abort with a message naming the violated property.
#include <gtest/gtest.h>

#include "baton/baton.h"

namespace baton {
namespace {

// Builds a healthy 32-node overlay. The test then mutates one node through
// the (test-only) const_cast window and runs CheckInvariants.
struct Overlay {
  net::Network net;
  std::unique_ptr<BatonNetwork> overlay;
  std::vector<PeerId> members;

  explicit Overlay(uint64_t seed) {
    overlay = std::make_unique<BatonNetwork>(BatonConfig{}, &net, seed);
    members.push_back(overlay->Bootstrap());
    Rng rng(seed);
    while (members.size() < 32) {
      members.push_back(
          overlay->Join(members[rng.NextBelow(members.size())]).value());
    }
    for (int i = 0; i < 320; ++i) {
      Status s = overlay->Insert(members[rng.NextBelow(members.size())],
                                 rng.UniformInt(1, 999999999));
      BATON_CHECK(s.ok());
    }
  }

  BatonNode* Mutable(PeerId p) {
    return const_cast<BatonNode*>(&overlay->node(p));
  }
  PeerId SomeLeaf() {
    for (PeerId m : members) {
      if (overlay->node(m).IsLeaf()) return m;
    }
    return kNullPeer;
  }
  PeerId SomeInternal() {
    for (PeerId m : members) {
      if (!overlay->node(m).IsLeaf()) return m;
    }
    return kNullPeer;
  }
};

using InvariantCheckerDeathTest = ::testing::Test;

TEST(InvariantCheckerDeathTest, HealthyOverlayPasses) {
  Overlay o(1);
  o.overlay->CheckInvariants();  // must not die
}

TEST(InvariantCheckerDeathTest, DetectsRangeGap) {
  Overlay o(2);
  PeerId leaf = o.SomeLeaf();
  EXPECT_DEATH(
      {
        o.Mutable(leaf)->range.lo += 1;  // opens a 1-key gap
        o.overlay->CheckInvariants();
      },
      "range");
}

TEST(InvariantCheckerDeathTest, DetectsStaleCachedRange) {
  Overlay o(3);
  PeerId leaf = o.SomeLeaf();
  EXPECT_DEATH(
      {
        BatonNode* n = o.Mutable(leaf);
        NodeRef* adj = n->left_adj.valid() ? &n->left_adj : &n->right_adj;
        adj->range.hi += 12345;  // cache no longer matches the target
        o.overlay->CheckInvariants();
      },
      "adjacent");
}

TEST(InvariantCheckerDeathTest, DetectsBrokenAdjacencyChain) {
  Overlay o(4);
  PeerId internal = o.SomeInternal();
  EXPECT_DEATH(
      {
        BatonNode* n = o.Mutable(internal);
        // Point the right-adjacent link at the wrong peer.
        n->right_adj = n->parent.valid() ? n->parent : n->left_child;
        o.overlay->CheckInvariants();
      },
      "adjacent");
}

TEST(InvariantCheckerDeathTest, DetectsStaleChildBitInTable) {
  Overlay o(5);
  // Find a node with a populated routing table entry.
  for (PeerId m : o.members) {
    for (bool left : {true, false}) {
      for (int i = 0; i < o.overlay->node(m).TableSize(left); ++i) {
        NodeRef e = o.overlay->TableEntry(m, left, i);
        if (e.valid()) {
          EXPECT_DEATH(
              {
                e.has_left = !e.has_left;
                o.overlay->SetTableEntry(m, left, i, e);
                o.overlay->CheckInvariants();
              },
              "child bit");
          return;
        }
      }
    }
  }
  FAIL() << "no populated routing entry found";
}

TEST(InvariantCheckerDeathTest, DetectsMisplacedKey) {
  Overlay o(6);
  PeerId leaf = o.SomeLeaf();
  EXPECT_DEATH(
      {
        BatonNode* n = o.Mutable(leaf);
        // Insert a key outside the node's range, bypassing routing.
        n->data.Insert(n->range.hi + 100);
        o.overlay->CheckInvariants();
      },
      "");
}

TEST(InvariantCheckerDeathTest, DetectsKeyAccountingDrift) {
  Overlay o(7);
  PeerId leaf = o.SomeLeaf();
  EXPECT_DEATH(
      {
        BatonNode* n = o.Mutable(leaf);
        if (!n->data.empty()) {
          Key k = n->data.Min();
          n->data.Erase(k);  // vanishes a key without the bookkeeping
        } else {
          n->data.Insert(n->range.lo);
        }
        o.overlay->CheckInvariants();
      },
      "key accounting");
}

TEST(InvariantCheckerDeathTest, DetectsClearedTableEntry) {
  Overlay o(8);
  for (PeerId m : o.members) {
    for (bool left : {true, false}) {
      for (int i = 0; i < o.overlay->node(m).TableSize(left); ++i) {
        if (o.overlay->TableEntry(m, left, i).valid()) {
          EXPECT_DEATH(
              {
                // A link the occupancy says must exist.
                o.overlay->SetTableEntry(m, left, i, NodeRef{});
                o.overlay->CheckInvariants();
              },
              "missing table entry");
          return;
        }
      }
    }
  }
  FAIL() << "no populated routing entry found";
}

TEST(InvariantCheckerDeathTest, DetectsRowHeldOutsideTheOverlay) {
  Overlay o(10);
  PeerId leaf = o.SomeLeaf();
  ASSERT_TRUE(o.overlay->Leave(leaf).ok());
  o.overlay->CheckInvariants();  // the departed leaf returned its row
  EXPECT_DEATH(
      {
        o.Mutable(leaf)->row = o.overlay->node(o.overlay->root()).row;
        o.overlay->CheckInvariants();
      },
      "outside the overlay holds a routing row");
}

TEST(InvariantCheckerDeathTest, DetectsRowOwnedByAnotherPeer) {
  Overlay o(11);
  PeerId a = o.SomeLeaf();
  uint32_t level = o.overlay->node(a).pos.level;
  PeerId b = kNullPeer;
  for (PeerId m : o.members) {
    if (m != a && o.overlay->node(m).pos.level == level) b = m;
  }
  ASSERT_NE(b, kNullPeer);
  EXPECT_DEATH(
      {
        o.Mutable(a)->row = o.overlay->node(b).row;  // b's row, a's level
        o.overlay->CheckInvariants();
      },
      "routing row of");
}

TEST(InvariantCheckerDeathTest, DetectsPendingDeferredUpdates) {
  Overlay o(9);
  EXPECT_DEATH(
      {
        o.overlay->SetDeferUpdates(true);
        auto joined = o.overlay->Join(o.members[0]);
        (void)joined;
        o.overlay->CheckInvariants();  // must refuse while updates in flight
      },
      "flush");
}

}  // namespace
}  // namespace baton
