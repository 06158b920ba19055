// Node departure (section III-B): leaf nodes whose absence keeps the tree
// balanced leave directly (content and range go to the parent); everyone else
// finds a replacement leaf with Algorithm 2, which then takes over the
// departing node's position. Message accounting follows the paper's
// 2L1 + 2L2 + 2 (direct leave) and 8 log N (replacement) bounds.
#include <utility>

#include "baton/baton_network.h"

namespace baton {

bool BatonNetwork::SafeToRemove(const BatonNode* x) const {
  // Theorem 1: removing x must not leave a node that has a child with a
  // non-full routing table. x must be a leaf, and no sideways neighbour may
  // have children (their tables would lose the entry pointing at x).
  if (!x->IsLeaf()) return false;
  for (bool left : {true, false}) {
    for (int i = 0; i < x->TableSize(left); ++i) {
      if (TableEntry(x->id, left, i).HasChild()) return false;
    }
  }
  return true;
}

bool BatonNetwork::LeaveHandshakeOk(const BatonNode* x,
                                    PeerId exempt_dead) const {
  if (x->pos.IsRoot()) return true;  // the root departs via replacement
  if (!x->parent.valid()) return false;
  PeerId actual = OccupantOf(x->pos.Parent());
  if (actual != x->parent.peer) return false;  // stale link: position moved
  return net_->IsAlive(actual) || actual == exempt_dead;
}

Status BatonNetwork::Leave(PeerId leaver) {
  if (!InOverlay(leaver)) {
    return Status::InvalidArgument("peer is not an overlay member");
  }
  BatonNode* x = N(leaver);
  if (size() == 1) {
    RemoveLastNode(x);
    return Status::OK();
  }
  if (SafeToRemove(x)) {
    if (!LeaveHandshakeOk(x)) {
      return Status::Unavailable("parent link in flux; retry the departure");
    }
    SafeLeaveAsLeaf(x, /*transfer_content=*/true);
    return Status::OK();
  }
  int hops = 0;
  PeerId zid = FindReplacementStart(x, &hops);
  if (zid == kNullPeer) {
    return Status::Unavailable("replacement search blocked by failures");
  }
  BatonNode* z = N(zid);
  BATON_CHECK_NE(z->id, x->id);
  if (!LeaveHandshakeOk(z)) {
    return Status::Unavailable("replacement's parent link in flux; retry");
  }
  ReplaceNode(x, z, /*content_lost=*/false);
  return Status::OK();
}

void BatonNetwork::RemoveLastNode(BatonNode* x) {
  // The last member takes its keys with it: no peer remains to hold them
  // (and no peer remains to hand held replicas to).
  total_keys_ -= x->data.size();
  lost_keys_ += x->data.size();
  x->data = KeyBag{};
  ReplicaDropPrimary(x);
  UnindexPosition(x);
  ReleaseRow(x);
  x->in_overlay = false;
  net_->MarkDead(x->id);
  ReplicaPeerGone(x->id, /*graceful=*/false);
  bootstrapped_ = false;  // a fresh Bootstrap may restart the overlay
}

void BatonNetwork::SafeLeaveAsLeaf(BatonNode* x, bool transfer_content,
                                   bool peer_stays_up) {
  BATON_CHECK(x->IsLeaf());
  BATON_CHECK(x->parent.valid()) << "a leaf in a size>1 overlay has a parent";
  BatonNode* p = N(x->parent.peer);
  // Graceful departure vs abrupt-failure cleanup: only a peer that was
  // still up when the departure began can hand off the replicas it holds.
  bool was_alive = net_->IsAlive(x->id);

  // 1. Content and range move to the parent (a leaf's range is contiguous
  //    with its parent's: the leaf is the parent's in-order neighbour).
  if (transfer_content) {
    Count(x->id, p->id, net::MsgType::kContentTransfer);
    p->data.Absorb(&x->data);
  } else {
    // Abrupt failure with no restorable replica: the keys are lost.
    total_keys_ -= x->data.size();
    lost_keys_ += x->data.size();
    x->data = KeyBag{};
  }
  if (x->pos.IsLeftChild()) {
    BATON_CHECK_EQ(x->range.hi, p->range.lo);
    p->range.lo = x->range.lo;
  } else {
    BATON_CHECK_EQ(p->range.hi, x->range.lo);
    p->range.hi = x->range.hi;
  }

  // 2. x's links are bypassed and cleared.
  UnlinkLeaf(x, p);
  net_->MarkDead(x->id);
  // The parent's bag grew by the handover: its replicas must hear about it.
  // When the parent is itself a dead pending failure (the child's recovery
  // ran first), the handover's sender -- x's address, relayed by the
  // recovery initiator -- syncs the parent's replicas on its behalf. Synced
  // before releasing x's held replicas: the full sync already prunes x from
  // p's holder set and recruits the replacement, so the release below has
  // nothing left to re-home for p (saves a redundant bulk sync).
  //
  // In the transient case the caller syncs p instead, after restoring x's
  // liveness: syncing here would prune the only-momentarily-dead x from p's
  // holder set and orphan the copy x still physically holds.
  if (transfer_content && !peer_stays_up) ReplicateFullSync(p, /*via=*/x->id);
  // A transiently departing peer (replacement protocol) keeps the replicas
  // it holds for others -- it never actually goes away.
  if (!peer_stays_up) ReplicaPeerGone(x->id, /*graceful=*/was_alive);
}

void BatonNetwork::DetachLeaf(BatonNode* x) {
  // Load-balancing variant: x's content was already handed to an adjacent
  // node, so only the links and the parent's child bit need fixing. The
  // caller is responsible for rebalancing the vacated slot if necessary.
  BATON_CHECK(x->IsLeaf());
  BATON_CHECK(x->data.empty());
  BATON_CHECK(x->parent.valid());
  BatonNode* p = N(x->parent.peer);
  Count(x->id, p->id, net::MsgType::kParentNotify);
  // x's bag was already handed off (it is about to rejoin elsewhere with new
  // content), so the replica set UnlinkLeaf drops is obsolete. x stays up,
  // so replicas *it* holds for other primaries remain valid.
  UnlinkLeaf(x, p);
}

void BatonNetwork::UnlinkLeaf(BatonNode* x, BatonNode* p) {
  if (x->pos.IsLeftChild()) {
    p->left_child.Clear();
  } else {
    p->right_child.Clear();
  }

  // Adjacent links bypass x.
  UnspliceFromAdjacency(x);

  // LEAVE messages null the neighbours' entries pointing at x (<= 2 L2).
  ClearReverseEntriesAt(x->pos, x->id);

  // The parent's child bits (and, on a departure, its range) changed:
  // refresh every link that caches them (<= 2 L1 sideways plus a constant).
  RefreshInboundRefs(p, net::MsgType::kChildStatusNotify);

  UnindexPosition(x);
  ReleaseRow(x);
  x->in_overlay = false;
  x->left_adj.Clear();
  x->right_adj.Clear();
  ReplicaDropPrimary(x);  // charged only when x is alive to announce it
}

PeerId BatonNetwork::FindReplacementStart(BatonNode* x, int* hops) {
  // A leaf that cannot leave directly has a sideways neighbour with a child:
  // Algorithm 2's own first step sends the FINDREPLACEMENT request there.
  if (x->IsLeaf()) return RunFindReplacement(x, hops);
  // Internal node: descend through an adjacent node, "a leaf node, or as
  // deep as possible". The deeper adjacent goes first (the left one on a
  // tie); a dead one costs a timed-out probe and is skipped.
  const NodeRef* adjs[2] = {&x->left_adj, &x->right_adj};
  if (x->right_adj.pos.level > x->left_adj.pos.level) {
    std::swap(adjs[0], adjs[1]);
  }
  for (const NodeRef* adj : adjs) {
    if (!adj->valid() || !Probe(x->id, adj->peer)) continue;
    Count(x->id, adj->peer, net::MsgType::kReplacementForward);
    ++*hops;
    return RunFindReplacement(N(adj->peer), hops);
  }
  return kNullPeer;
}

PeerId BatonNetwork::RunFindReplacement(BatonNode* start, int* hops) {
  // Algorithm 2: always descend, so at most height-of-tree steps. A dead
  // candidate costs a timed-out probe and is skipped (multiple simultaneous
  // failures, section III-D).
  BatonNode* n = start;
  int guard = config_.max_hops_factor * (Height() + 2) + 8;
  while (true) {
    if (--guard < 0) {
      BATON_CHECK(defer_updates_) << "FindReplacement did not terminate";
      return kNullPeer;
    }
    BatonNode* deeper = nullptr;
    for (const NodeRef* c : {&n->left_child, &n->right_child}) {
      if (!c->valid() || !Probe(n->id, c->peer)) continue;
      Count(n->id, c->peer, net::MsgType::kReplacementForward);
      ++*hops;
      deeper = N(c->peer);
      break;
    }
    if (deeper == nullptr) {
      // n is a (reachable) leaf; a sideways neighbour with children sends us
      // deeper.
      for (bool left : {true, false}) {
        for (int i = 0; i < n->TableSize(left) && deeper == nullptr; ++i) {
          NodeRef e = TableEntry(n->id, left, i);
          if (!e.HasChild() || !Probe(n->id, e.peer)) continue;
          BatonNode* nb = N(e.peer);
          Count(n->id, nb->id, net::MsgType::kReplacementForward);
          ++*hops;
          for (const NodeRef* c : {&nb->left_child, &nb->right_child}) {
            if (!c->valid() || !Probe(nb->id, c->peer)) continue;
            Count(nb->id, c->peer, net::MsgType::kReplacementForward);
            ++*hops;
            deeper = N(c->peer);
            break;
          }
        }
      }
    }
    if (deeper == nullptr) {
      // No children anywhere in sight: n itself is the replacement, unless
      // its own departure would be unsafe because a dead neighbour still has
      // children (rare multi-failure corner: give up and let the caller
      // retry after other recoveries).
      return SafeToRemove(n) ? n->id : kNullPeer;
    }
    n = deeper;
  }
}

void BatonNetwork::ReplaceNode(BatonNode* x, BatonNode* z, bool content_lost) {
  BATON_CHECK(z->IsLeaf());
  bool x_was_alive = net_->IsAlive(x->id);  // graceful leave vs failure
  // Under deferred updates stale child bits can make an actually-unsafe leaf
  // look safe; structurally the replacement still works (transient imbalance
  // the network repairs as updates propagate).
  if (!defer_updates_) {
    BATON_CHECK(SafeToRemove(z)) << "Algorithm 2 must return a safe leaf";
  }
  // A failed node's keys are gone (unless the caller already restored them
  // from a replica). Account for them *before* z's departure: if z happens
  // to be x's child, z's own keys transfer into x's (dead) store below and
  // must not be double-counted as lost -- z reclaims them in the handover.
  if (content_lost) {
    total_keys_ -= x->data.size();
    lost_keys_ += x->data.size();
    x->data = KeyBag{};
  }

  // 1. z leaves its own position gracefully (content to its parent). This
  //    also fixes x's own links if z happened to be x's child or adjacent.
  //    The physical peer stays up -- it is about to re-appear at x's
  //    position -- so undo the departure's liveness bookkeeping (and keep
  //    the replicas z holds for other primaries).
  PeerId z_parent = z->parent.peer;  // captured: the departure clears links
  SafeLeaveAsLeaf(z, /*transfer_content=*/true, /*peer_stays_up=*/true);
  net_->MarkAlive(z->id);
  // z's old parent absorbed z's bag; its replicas sync now that z is back
  // up, so z keeps its holder slot instead of being pruned as dead. (When
  // that parent is x itself -- z was x's child -- the sync is skipped: x's
  // bag is about to transfer to z and x's replica set is dropped below.)
  if (z_parent != x->id) ReplicateFullSync(N(z_parent));

  // 2. z assumes x's position, range, data and links (one bulk handover).
  if (!content_lost) {
    Count(x->id, z->id, net::MsgType::kContentTransfer);
  }
  UnindexPosition(x);
  TakeOverPosition(z, x);  // x's routing row, entries intact
  z->in_overlay = true;
  z->range = x->range;
  z->data = KeyBag{};
  z->data.Absorb(&x->data);
  z->parent = x->parent;
  z->left_child = x->left_child;
  z->right_child = x->right_child;
  z->left_adj = x->left_adj;
  z->right_adj = x->right_adj;
  IndexPosition(z);

  // 3. "all nodes with links to x must be informed to change the physical
  //    (IP) address of the link to point to y instead of x."
  RefreshInboundRefs(z, net::MsgType::kReplacementNotify);

  x->in_overlay = false;
  x->parent.Clear();
  x->left_child.Clear();
  x->right_child.Clear();
  x->left_adj.Clear();
  x->right_adj.Clear();
  ReplicaDropPrimary(x);  // charged only on a graceful departure (x alive)
  net_->MarkDead(x->id);
  ReplicaPeerGone(x->id, /*graceful=*/x_was_alive);
  // z's inherited bag needs a replica set of its own (z's old set was
  // dropped during its departure above).
  ReplicateFullSync(z);
}

}  // namespace baton
