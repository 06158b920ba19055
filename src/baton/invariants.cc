// Structural invariant checker (simulator-side "experimenter" view).
//
// Verifies, after any sequence of operations:
//  * the occupied positions form a tree (every non-root's parent occupied),
//  * Definition 1 balance at every node + Knuth's 1.44 log2 N height bound,
//  * Theorem 1: every node with a child has both routing tables full,
//  * Theorem 2: linked neighbours' parents are linked (structural corollary),
//  * adjacency links reproduce the in-order traversal exactly,
//  * ranges are contiguous, ordered, cover the bootstrap domain, and every
//    stored key lies in its node's range,
//  * every cached link (parent/child/adjacent/routing entries) carries the
//    target's true position, range and child bits,
//  * every member owns one routing row of its own level, and no peer outside
//    the overlay holds one.
#include <algorithm>
#include <cmath>
#include <functional>

#include "baton/baton_network.h"

namespace baton {

namespace {

void CheckRefMatches(const NodeRef& ref, const BatonNode& target,
                     const char* what) {
  BATON_CHECK_EQ(ref.peer, target.id) << what;
  BATON_CHECK(ref.pos == target.pos)
      << what << ": cached " << ref.pos << " actual " << target.pos;
  BATON_CHECK(ref.range == target.range)
      << what << " at " << target.pos << ": cached " << ref.range
      << " actual " << target.range;
  BATON_CHECK_EQ(ref.has_left, target.left_child.valid())
      << what << " child bit at " << target.pos;
  BATON_CHECK_EQ(ref.has_right, target.right_child.valid())
      << what << " child bit at " << target.pos;
}

}  // namespace

void BatonNetwork::CheckInvariants() const {
  BATON_CHECK_EQ(deferred_.size(), 0u)
      << "flush deferred updates before checking invariants";
  if (size() == 0) return;
  BATON_CHECK_NE(root(), kNullPeer) << "non-empty overlay must have a root";

  std::vector<PeerId> members = Members();
  BATON_CHECK_EQ(members.size(), size());

  uint64_t keys = 0;
  for (PeerId id : members) {
    const BatonNode& n = *N(id);
    BATON_CHECK(n.in_overlay);
    BATON_CHECK_EQ(OccupantOf(n.pos), id);

    // Vertical links.
    if (n.pos.IsRoot()) {
      BATON_CHECK(!n.parent.valid());
    } else {
      PeerId pp = OccupantOf(n.pos.Parent());
      BATON_CHECK_NE(pp, kNullPeer) << "orphan node at " << n.pos;
      BATON_CHECK(n.parent.valid()) << "missing parent link at " << n.pos;
      CheckRefMatches(n.parent, *N(pp), "parent link");
      const BatonNode& p = *N(pp);
      const NodeRef& back =
          n.pos.IsLeftChild() ? p.left_child : p.right_child;
      BATON_CHECK(back.valid()) << "parent " << p.pos << " missing child link";
      BATON_CHECK_EQ(back.peer, id);
    }
    for (bool left : {true, false}) {
      const NodeRef& c = left ? n.left_child : n.right_child;
      Position cpos = left ? n.pos.LeftChild() : n.pos.RightChild();
      PeerId occ = OccupantOf(cpos);
      if (occ == kNullPeer) {
        BATON_CHECK(!c.valid()) << "stale child link at " << n.pos;
      } else {
        BATON_CHECK(c.valid()) << "missing child link at " << n.pos;
        CheckRefMatches(c, *N(occ), "child link");
      }
    }

    // Routing tables mirror the same-level occupancy exactly.
    BATON_CHECK(n.pos.level < levels_.size() &&
                levels_[n.pos.level].rows.owner(n.row) == id)
        << "routing row of " << n.pos << " is not a row of level "
        << n.pos.level << " owned by peer " << id;
    for (bool left : {true, false}) {
      BATON_CHECK_EQ(n.TableSize(left), RoutingTable::NumSlots(n.pos, left))
          << "table dimension at " << n.pos;
      for (int i = 0; i < n.TableSize(left); ++i) {
        Position slot = RoutingTable::SlotPosition(n.pos, left, i);
        PeerId occ = OccupantOf(slot);
        NodeRef e = TableEntry(id, left, i);
        if (occ == kNullPeer) {
          BATON_CHECK(!e.valid())
              << "stale table entry at " << n.pos << " slot " << slot;
        } else {
          BATON_CHECK(e.valid())
              << "missing table entry at " << n.pos << " slot " << slot;
          CheckRefMatches(e, *N(occ), "table entry");
          // Theorem 2: the parents of linked same-level nodes are linked
          // too; structurally their distance must be 0 or a power of two.
          if (!n.pos.IsRoot()) {
            uint64_t pa = n.pos.Parent().number;
            uint64_t pb = slot.Parent().number;
            uint64_t d = pa > pb ? pa - pb : pb - pa;
            BATON_CHECK(d == 0 || RoutingTable::SlotForDistance(d) >= 0)
                << "Theorem 2 violated between " << n.pos << " and " << slot;
          }
        }
      }
    }

    // Theorem 1 invariant.
    if (n.left_child.valid() || n.right_child.valid()) {
      BATON_CHECK(TablesFull(&n))
          << "node " << n.pos << " has a child but non-full tables";
    }

    // Data containment.
    BATON_CHECK(n.range.lo < n.range.hi) << "empty range at " << n.pos;
    if (!n.data.empty()) {
      BATON_CHECK(n.range.Contains(n.data.Min()))
          << "key " << n.data.Min() << " outside " << n.range << " at "
          << n.pos;
      BATON_CHECK(n.range.Contains(n.data.Max()))
          << "key " << n.data.Max() << " outside " << n.range << " at "
          << n.pos;
    }
    keys += n.data.size();

    // Replication: every up-to-date replica of this node's bag must match it
    // exactly (stale copies are the anti-entropy pass's responsibility).
    if (repl_->enabled()) {
      repl_->CheckConsistent(id, n.data);
    }
  }
  BATON_CHECK_EQ(keys, total_keys_) << "key accounting drifted";

  // The routing arena: members hold one row each (checked above), and no
  // other peer holds one, so the rows in use are exactly the members'.
  size_t rows_in_use = 0;
  for (const Level& level : levels_) rows_in_use += level.rows.in_use();
  BATON_CHECK_EQ(rows_in_use, size()) << "routing rows in use vs members";
  for (const BatonNode& n : nodes_) {
    if (n.in_overlay) continue;
    BATON_CHECK_EQ(n.row, RoutingRows::kNoRow)
        << "peer " << n.id << " outside the overlay holds a routing row";
  }

  // Adjacency = in-order traversal; ranges ordered and contiguous.
  const BatonNode& first = *N(members.front());
  const BatonNode& last = *N(members.back());
  BATON_CHECK(!first.left_adj.valid());
  BATON_CHECK(!last.right_adj.valid());
  BATON_CHECK_LE(first.range.lo, config_.domain_lo);
  BATON_CHECK_GE(last.range.hi, config_.domain_hi);
  for (size_t i = 0; i + 1 < members.size(); ++i) {
    const BatonNode& a = *N(members[i]);
    const BatonNode& b = *N(members[i + 1]);
    BATON_CHECK(a.right_adj.valid())
        << "broken adjacency chain after " << a.pos;
    BATON_CHECK_EQ(a.right_adj.peer, b.id)
        << "right adjacent of " << a.pos << " should be " << b.pos;
    CheckRefMatches(a.right_adj, b, "right adjacent");
    BATON_CHECK(b.left_adj.valid());
    BATON_CHECK_EQ(b.left_adj.peer, a.id);
    CheckRefMatches(b.left_adj, a, "left adjacent");
    BATON_CHECK_EQ(a.range.hi, b.range.lo)
        << "range gap between " << a.pos << " and " << b.pos;
  }

  // Balance (Definition 1) at every node, via heights over positions.
  std::function<int(const Position&)> height = [&](const Position& pos) -> int {
    PeerId occ = OccupantOf(pos);
    if (occ == kNullPeer) return 0;
    int hl = height(pos.LeftChild());
    int hr = height(pos.RightChild());
    BATON_CHECK_LE(std::abs(hl - hr), 1)
        << "tree imbalanced at " << pos << " (" << hl << " vs " << hr << ")";
    return 1 + std::max(hl, hr);
  };
  int h = height(Position::Root());
  double n_nodes = static_cast<double>(size());
  BATON_CHECK_LE(h, static_cast<int>(1.44 * std::log2(n_nodes + 1)) + 2)
      << "height " << h << " exceeds the balanced-tree bound for " << n_nodes
      << " nodes";
}

}  // namespace baton
