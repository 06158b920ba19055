// Node join (section III-A): Algorithm 1 locates an accepting node; the
// acceptance phase splits content, fixes adjacent links and constructs the
// new node's routing tables with the message pattern the paper bounds by
// 2*L1 + 2*L2 + 2*L2 + 1 < 6 log N.
#include <algorithm>

#include "baton/baton_network.h"

namespace baton {

Result<PeerId> BatonNetwork::Join(PeerId contact) {
  BATON_CHECK(bootstrapped_) << "Bootstrap the overlay first";
  if (!InOverlay(contact)) {
    return Status::InvalidArgument("contact is not an overlay member");
  }
  int hops = 0;
  PeerId acceptor_id = FindJoinNode(contact, &hops);
  if (acceptor_id == kNullPeer) {
    return Status::Exhausted("join routing starved (stale state under churn)");
  }
  PeerId yid = AddNode()->id;
  // The append may have moved every node: look both up only now.
  BatonNode* x = N(acceptor_id);
  BatonNode* y = N(yid);

  bool as_left = !x->left_child.valid();
  AcceptChild(x, y, as_left);
  return yid;
}

PeerId BatonNetwork::FindJoinNode(PeerId contact, int* hops) {
  BatonNode* n = N(contact);
  int guard = config_.max_hops_factor * (Height() + 2) + 8;
  while (true) {
    if (--guard < 0) {
      // Under deferred updates (network dynamics, Fig 8(i)) stale caches can
      // starve the search; surface it instead of asserting.
      BATON_CHECK(defer_updates_) << "join routing did not terminate";
      return kNullPeer;
    }
    // Accept when both routing tables are full but a child slot is free
    // (Theorem 1 guarantees the addition keeps the tree balanced). A node
    // whose range cannot be split any further (pathological duplicate
    // concentration) must pass the request on instead.
    bool tables_full = TablesFull(n);
    if (tables_full && !n->HasBothChildren() && n->range.Width() >= 2) {
      return n->id;
    }

    // Candidate next hops, best first; stale links may point at departed
    // peers (churn), so each dead candidate costs a timed-out probe and the
    // next one is tried.
    std::vector<PeerId>& candidates = join_candidates_;
    candidates.clear();
    if (!tables_full && n->parent.valid()) {
      // Incomplete sideways knowledge: the parent can find the parent of a
      // missing neighbour in its own table.
      candidates.push_back(n->parent.peer);
    } else {
      // Tables full and both children present: look for a same-level node
      // that lacks a child.
      std::vector<PeerId>& open_slots = join_open_slots_;
      open_slots.clear();
      for (bool left : {true, false}) {
        for (int i = 0; i < n->TableSize(left); ++i) {
          NodeRef e = TableEntry(n->id, left, i);
          if (e.valid() && !(e.has_left && e.has_right)) {
            open_slots.push_back(e.peer);
          }
        }
      }
      if (!open_slots.empty()) {
        rng_.Shuffle(&open_slots);
        candidates.swap(open_slots);
      } else if (rng_.NextBool(0.5)) {
        // The whole visible neighbourhood is full: half the time, jump
        // laterally through a random far table entry so the walk diffuses
        // across the level toward the sparse region instead of cycling
        // inside one full subtree; the other half descends via an adjacent
        // link (below) to probe deeper levels.
        std::vector<PeerId>& lateral = join_lateral_;
        lateral.clear();
        for (bool left : {true, false}) {
          const RouteHot* rt = HotEntries(n, left);
          for (int i = 0; i < n->TableSize(left); ++i) {
            if (rt[i].peer != kNullPeer) lateral.push_back(rt[i].peer);
          }
        }
        if (!lateral.empty()) candidates.push_back(rng_.Pick(lateral));
      }
      // Fall back: descend through an adjacent node.
      if (n->left_adj.valid() && n->right_adj.valid()) {
        bool left_first = rng_.NextBool(0.5);
        candidates.push_back(left_first ? n->left_adj.peer
                                        : n->right_adj.peer);
        candidates.push_back(left_first ? n->right_adj.peer
                                        : n->left_adj.peer);
      } else if (n->left_adj.valid()) {
        candidates.push_back(n->left_adj.peer);
      } else if (n->right_adj.valid()) {
        candidates.push_back(n->right_adj.peer);
      }
    }
    PeerId next = kNullPeer;
    for (PeerId cand : candidates) {
      if (net_->IsAlive(cand) && InOverlay(cand)) {
        next = cand;
        break;
      }
      Count(n->id, cand, net::MsgType::kDeadProbe);
    }
    if (next == kNullPeer) {
      BATON_CHECK(defer_updates_) << "join routing hit a dead end";
      return kNullPeer;
    }
    Count(n->id, next, net::MsgType::kJoinForward);
    if (hops != nullptr) ++*hops;
    n = N(next);
  }
}

void BatonNetwork::SplitContent(BatonNode* x, BatonNode* y, bool as_left) {
  BATON_CHECK_GE(x->range.Width(), 2)
      << "node " << x->pos << " range " << x->range
      << " too narrow to split; the key domain must exceed the node count";
  // "it splits half of its content to its child": split at the content
  // median so both halves carry similar load; an empty node splits its value
  // range evenly.
  Key split = x->data.size() >= 2 ? x->data.Median() : x->range.Mid();
  split = std::max(x->range.lo + 1, std::min(split, x->range.hi - 1));
  if (as_left) {
    y->range = Range{x->range.lo, split};
    y->data = x->data.ExtractBelow(split);
    x->range.lo = split;
  } else {
    y->range = Range{split, x->range.hi};
    y->data = x->data.ExtractAtLeast(split);
    x->range.hi = split;
  }
  Count(x->id, y->id, net::MsgType::kContentTransfer);
}

void BatonNetwork::SpliceIntoAdjacency(BatonNode* y, BatonNode* x,
                                       bool before) {
  if (before) {
    y->left_adj = x->left_adj;
    y->right_adj = x->SelfRef();
    if (x->left_adj.valid()) {
      // "y ... notifies z that z should update its right adjacent node with
      // y instead of x".
      Count(y->id, x->left_adj.peer, net::MsgType::kAdjacentUpdate);
      SendRefUpdate(x->left_adj.peer, RefKind::kRightAdj, 0, y->SelfRef());
    }
    x->left_adj = y->SelfRef();
  } else {
    y->right_adj = x->right_adj;
    y->left_adj = x->SelfRef();
    if (x->right_adj.valid()) {
      Count(y->id, x->right_adj.peer, net::MsgType::kAdjacentUpdate);
      SendRefUpdate(x->right_adj.peer, RefKind::kLeftAdj, 0, y->SelfRef());
    }
    x->right_adj = y->SelfRef();
  }
}

void BatonNetwork::UnspliceFromAdjacency(BatonNode* x) {
  // x's neighbours link to each other: each hears x's cache of the other.
  // With no neighbour beyond x the payload is the clear marker, which
  // ApplyRefUpdate applies only while the link still points at x's position.
  NodeRef cleared;
  cleared.pos = x->pos;
  for (bool left : {true, false}) {
    const NodeRef& near = left ? x->left_adj : x->right_adj;
    const NodeRef& far = left ? x->right_adj : x->left_adj;
    if (!near.valid()) continue;
    Count(x->id, near.peer, net::MsgType::kAdjacentUpdate);
    SendRefUpdate(near.peer, left ? RefKind::kRightAdj : RefKind::kLeftAdj, 0,
                  far.valid() ? far : cleared);
  }
}

void BatonNetwork::AcceptChild(BatonNode* x, BatonNode* y, bool as_left) {
  BATON_CHECK(!(as_left ? x->left_child.valid() : x->right_child.valid()));
  Position child_pos = as_left ? x->pos.LeftChild() : x->pos.RightChild();
  SetPosition(y, child_pos);
  y->in_overlay = true;
  IndexPosition(y);

  SplitContent(x, y, as_left);

  // Parent/child links travel on the acceptance exchange (already counted
  // as the content transfer).
  y->parent = x->SelfRef();
  SpliceIntoAdjacency(y, x, /*before=*/as_left);
  if (as_left) {
    x->left_child = y->SelfRef();
  } else {
    x->right_child = y->SelfRef();
  }
  // Refresh y's own caches of x: the splice snapshotted x before the child
  // link and range split were in place (all part of the same acceptance
  // exchange, no extra messages).
  y->parent = x->SelfRef();
  if (as_left) {
    y->right_adj = x->SelfRef();
  } else {
    y->left_adj = x->SelfRef();
  }

  BuildChildTables(x, y);

  // x's range and child bits changed; its parent, other child and far
  // adjacent still cache the old state (its sideways neighbours were updated
  // during table construction).
  NodeRef self = x->SelfRef();
  if (x->parent.valid()) {
    Count(x->id, x->parent.peer, net::MsgType::kParentNotify);
    SendRefUpdate(x->parent.peer,
                  x->pos.IsLeftChild() ? RefKind::kLeftChild
                                       : RefKind::kRightChild,
                  0, self);
  }
  BatonNode* other_child = as_left ? NodeOrNull(x->right_child)
                                   : NodeOrNull(x->left_child);
  if (other_child != nullptr) {
    Count(x->id, other_child->id, net::MsgType::kRangeUpdate);
    SendRefUpdate(other_child->id, RefKind::kParent, 0, self);
  }
  const NodeRef& far_adj = as_left ? x->right_adj : x->left_adj;
  if (far_adj.valid() && far_adj.peer != y->id) {
    Count(x->id, far_adj.peer, net::MsgType::kRangeUpdate);
    SendRefUpdate(far_adj.peer,
                  as_left ? RefKind::kLeftAdj : RefKind::kRightAdj, 0, self);
  }

  // The split moved half of x's bag to y: x re-syncs its replicas and y
  // recruits its own holders now that its links are in place.
  ReplicateFullSync(x);
  ReplicateFullSync(y);
}

void BatonNetwork::BuildChildTables(BatonNode* x, BatonNode* y) {
  // For each potential sideways neighbour q of y, Theorem 2 places q's
  // parent in x's routing table (or it is x itself). x contacts each such
  // parent once; the parent forwards to its relevant child; the child
  // replies to y, installing the symmetric entries.
  std::vector<PeerId>& contacted = join_contacted_;
  contacted.clear();
  for (bool left : {true, false}) {
    for (int i = 0; i < y->TableSize(left); ++i) {
      Position q = RoutingTable::SlotPosition(y->pos, left, i);
      Position pq = q.Parent();
      BatonNode* q_parent = nullptr;
      if (pq == x->pos) {
        q_parent = x;  // sibling slot: x answers locally
      } else {
        uint64_t d = pq.number > x->pos.number ? pq.number - x->pos.number
                                               : x->pos.number - pq.number;
        int slot = RoutingTable::SlotForDistance(d);
        BATON_CHECK_GE(slot, 0) << "Theorem 2 violated for slot " << q;
        bool x_left = pq.number < x->pos.number;
        PeerId qp = slot < x->TableSize(x_left)
                        ? HotEntries(x, x_left)[slot].peer
                        : kNullPeer;
        if (qp == kNullPeer) {
          continue;  // q's parent absent => q unoccupied (Theorem 2)
        }
        q_parent = N(qp);
        if (std::find(contacted.begin(), contacted.end(), qp) ==
            contacted.end()) {
          contacted.push_back(qp);
          Count(x->id, q_parent->id, net::MsgType::kTableBuild);
          // Piggyback x's new range/child bits on this contact.
          SendRefUpdate(q_parent->id,
                        x_left ? RefKind::kRightRt : RefKind::kLeftRt, slot,
                        x->SelfRef());
        }
      }
      const NodeRef& child_ref = q == pq.LeftChild() ? q_parent->left_child
                                                     : q_parent->right_child;
      if (!child_ref.valid()) continue;
      BatonNode* c = N(child_ref.peer);
      Count(q_parent->id, c->id, net::MsgType::kTableBuildChild);
      Count(c->id, y->id, net::MsgType::kTableBuildReply);
      SetTableEntry(y->id, left, i, c->SelfRef());
      // c installs its reverse entry toward y from the same exchange.
      SendRefUpdate(c->id, left ? RefKind::kRightRt : RefKind::kLeftRt, i,
                    y->SelfRef());
    }
  }
}

}  // namespace baton
