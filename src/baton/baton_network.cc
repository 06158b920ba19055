#include "baton/baton_network.h"

#include <algorithm>

namespace baton {

BatonNetwork::BatonNetwork(const BatonConfig& config, net::Network* net,
                           uint64_t seed)
    : config_(config), net_(net), rng_(seed) {
  BATON_CHECK(net != nullptr);
  BATON_CHECK_LT(config.domain_lo, config.domain_hi);
  repl_ = std::make_unique<replication::ReplicationManager>(
      config.replication, net);
}

const BatonNode& BatonNetwork::node(PeerId p) const { return *N(p); }

bool BatonNetwork::InOverlay(PeerId p) const {
  if (p >= nodes_.size()) return false;
  return nodes_[p].in_overlay;
}

PeerId BatonNetwork::Bootstrap() {
  BATON_CHECK(!bootstrapped_) << "Bootstrap must be called exactly once";
  bootstrapped_ = true;
  BatonNode* node = AddNode();
  SetPosition(node, Position::Root());
  node->range = Range{config_.domain_lo, config_.domain_hi};
  node->in_overlay = true;
  IndexPosition(node);
  return node->id;
}

BatonNode* BatonNetwork::AddNode() {
  PeerId id = net_->Register();
  BATON_CHECK_EQ(id, nodes_.size()) << "peer ids index nodes_";
  BatonNode& node = nodes_.emplace_back();
  node.id = id;
  return &node;
}

void BatonNetwork::SetPosition(BatonNode* n, const Position& p) {
  if (n->row != RoutingRows::kNoRow && n->pos.level != p.level) {
    ReleaseRow(n);
  }
  n->pos = p;
  while (levels_.size() <= p.level) {
    levels_.emplace_back(static_cast<uint32_t>(levels_.size()));
  }
  RoutingRows& rows = levels_[p.level].rows;
  if (n->row == RoutingRows::kNoRow) {
    n->row = rows.Acquire(n->id);
  } else {
    rows.Clear(n->row);
  }
  n->left_slots = static_cast<uint8_t>(RoutingTable::NumSlots(p, true));
  n->right_slots = static_cast<uint8_t>(RoutingTable::NumSlots(p, false));
}

void BatonNetwork::ReleaseRow(BatonNode* n) {
  levels_[n->pos.level].rows.Release(n->row);
  n->row = RoutingRows::kNoRow;
  n->left_slots = 0;
  n->right_slots = 0;
}

void BatonNetwork::TakeOverPosition(BatonNode* z, BatonNode* x) {
  BATON_CHECK_EQ(z->row, RoutingRows::kNoRow) << "z must have left first";
  levels_[x->pos.level].rows.Transfer(x->row, z->id);
  z->pos = x->pos;
  z->row = x->row;
  z->left_slots = x->left_slots;
  z->right_slots = x->right_slots;
  x->row = RoutingRows::kNoRow;
  x->left_slots = 0;
  x->right_slots = 0;
}

void BatonNetwork::IndexPosition(BatonNode* n) {
  BATON_CHECK_LT(n->pos.level, levels_.size()) << "SetPosition adds levels";
  Level& level = levels_[n->pos.level];
  PeerId& slot = level.occupant[n->pos.number - 1];
  BATON_CHECK_EQ(slot, kNullPeer) << "position " << n->pos << " occupied";
  slot = n->id;
  ++level.occupied;
  ++size_;
  height_ = std::max(height_, static_cast<int>(n->pos.level));
}

void BatonNetwork::UnindexPosition(BatonNode* n) {
  BATON_CHECK_EQ(OccupantOf(n->pos), n->id);
  Level& level = levels_[n->pos.level];
  level.occupant[n->pos.number - 1] = kNullPeer;
  --level.occupied;
  --size_;
  // The height can only shrink when the bottom level empties; walk up past
  // any (transiently) empty levels. Amortised O(1) over any op sequence.
  while (height_ >= 0 && levels_[static_cast<size_t>(height_)].occupied == 0) {
    --height_;
  }
}

std::vector<PeerId> BatonNetwork::Members() const {
  // Iterative in-order walk over the directory (the ground truth the
  // invariant checker also validates adjacency against -- deriving the
  // member order from cached adjacent links would make that check
  // circular). Each node costs O(1) probes, so the walk is O(N) with no
  // sort. The size check at the end keeps orphaned subtrees (unreachable
  // from the root) as loud as the old full-directory scan made them.
  std::vector<PeerId> out;
  out.reserve(size());
  if (size() == 0) return out;
  std::vector<std::pair<Position, PeerId>> path;  // stack: depth <= height+1
  path.reserve(static_cast<size_t>(height_ + 2));
  Position cur = Position::Root();
  PeerId occ = OccupantOf(cur);
  while (occ != kNullPeer || !path.empty()) {
    while (occ != kNullPeer) {
      path.emplace_back(cur, occ);
      cur = cur.LeftChild();
      occ = OccupantOf(cur);
    }
    const auto& [pos, id] = path.back();
    out.push_back(id);
    cur = pos.RightChild();
    path.pop_back();
    occ = OccupantOf(cur);
  }
  BATON_CHECK_EQ(out.size(), size())
      << "directory holds entries unreachable from the root (orphan)";
  return out;
}

void BatonNetwork::ApplyRefUpdate(PeerId holder_id, RefKind kind, int slot,
                                  NodeRef payload) {
  if (holder_id >= nodes_.size()) return;
  BatonNode* holder = N(holder_id);
  if (!holder->in_overlay) return;  // the holder left before delivery
  auto set_or_clear = [&](NodeRef* ref, bool pos_must_match) {
    if (!payload.valid()) {
      // Clear only if the ref still points where the sender believed.
      if (ref->valid() && ref->pos == payload.pos) ref->Clear();
      return;
    }
    if (pos_must_match) *ref = payload;
  };
  switch (kind) {
    case RefKind::kParent:
      if (payload.valid() &&
          (holder->pos.IsRoot() || holder->pos.Parent() != payload.pos)) {
        return;  // holder moved; a fresher update will follow
      }
      set_or_clear(&holder->parent, true);
      return;
    case RefKind::kLeftChild:
      if (payload.valid() && holder->pos.LeftChild() != payload.pos) return;
      set_or_clear(&holder->left_child, true);
      return;
    case RefKind::kRightChild:
      if (payload.valid() && holder->pos.RightChild() != payload.pos) return;
      set_or_clear(&holder->right_child, true);
      return;
    case RefKind::kLeftAdj:
      // Adjacency is between nodes, not positions: apply as sent.
      if (!payload.valid()) {
        set_or_clear(&holder->left_adj, false);
      } else {
        holder->left_adj = payload;
      }
      return;
    case RefKind::kRightAdj:
      if (!payload.valid()) {
        set_or_clear(&holder->right_adj, false);
      } else {
        holder->right_adj = payload;
      }
      return;
    case RefKind::kLeftRt:
    case RefKind::kRightRt: {
      bool left = kind == RefKind::kLeftRt;
      if (slot < 0 || slot >= holder->TableSize(left)) return;  // moved levels
      if (RoutingTable::SlotPosition(holder->pos, left, slot) != payload.pos) {
        return;  // holder's number changed; entry no longer matches
      }
      SetTableEntry(holder_id, left, slot, payload);  // a clear nulls it
      return;
    }
  }
}

void BatonNetwork::SendRefUpdate(PeerId holder, RefKind kind, int slot,
                                 NodeRef payload) {
  if (defer_updates_) {
    deferred_.push_back({holder, kind, slot, payload});
  } else {
    ApplyRefUpdate(holder, kind, slot, payload);
  }
}

size_t BatonNetwork::FlushDeferred() {
  // ApplyRefUpdate sends nothing, so one pass in send order drains the
  // queue. It is swapped out first so that a send during the pass could
  // never grow the vector being iterated.
  std::vector<RefUpdate> pending;
  pending.swap(deferred_);
  for (const RefUpdate& u : pending) {
    ApplyRefUpdate(u.holder, u.kind, u.slot, u.payload);
  }
  return pending.size();
}

void BatonNetwork::RefreshInboundRefs(BatonNode* x,
                                      std::optional<net::MsgType> charge) {
  NodeRef self = x->SelfRef();
  PeerId xid = x->id;
  auto send = [&](PeerId holder, RefKind kind, int slot) {
    if (charge) Count(xid, holder, *charge);
    SendRefUpdate(holder, kind, slot, self);
  };
  if (x->parent.valid()) {
    send(x->parent.peer,
         x->pos.IsLeftChild() ? RefKind::kLeftChild : RefKind::kRightChild, 0);
  }
  if (x->left_child.valid()) send(x->left_child.peer, RefKind::kParent, 0);
  if (x->right_child.valid()) send(x->right_child.peer, RefKind::kParent, 0);
  // x is the right adjacent of its left adjacent, and vice versa.
  if (x->left_adj.valid()) send(x->left_adj.peer, RefKind::kRightAdj, 0);
  if (x->right_adj.valid()) send(x->right_adj.peer, RefKind::kLeftAdj, 0);
  for (bool left : {true, false}) {
    const RouteHot* rt = HotEntries(x, left);
    for (int i = 0; i < x->TableSize(left); ++i) {
      if (rt[i].peer == kNullPeer) continue;
      // A node to x's left holds x in its right table at the same slot.
      send(rt[i].peer, left ? RefKind::kRightRt : RefKind::kLeftRt, i);
    }
  }
}

void BatonNetwork::RepairAllLinks() {
  BATON_CHECK(!defer_updates_) << "flush before repairing";
  std::vector<PeerId> order = Members();
  for (size_t i = 0; i < order.size(); ++i) {
    BatonNode* n = N(order[i]);
    // Vertical links.
    if (n->pos.IsRoot()) {
      n->parent.Clear();
    } else {
      PeerId pp = OccupantOf(n->pos.Parent());
      BATON_CHECK_NE(pp, kNullPeer) << "orphan at " << n->pos;
      n->parent = N(pp)->SelfRef();
    }
    for (bool left : {true, false}) {
      NodeRef& ref = left ? n->left_child : n->right_child;
      PeerId occ =
          OccupantOf(left ? n->pos.LeftChild() : n->pos.RightChild());
      if (occ == kNullPeer) {
        ref.Clear();
      } else {
        ref = N(occ)->SelfRef();
      }
    }
    // Adjacency from the in-order member sequence.
    if (i == 0) {
      n->left_adj.Clear();
    } else {
      n->left_adj = N(order[i - 1])->SelfRef();
    }
    if (i + 1 == order.size()) {
      n->right_adj.Clear();
    } else {
      n->right_adj = N(order[i + 1])->SelfRef();
    }
    RebuildRoutingTables(n, /*charge=*/false);
  }
  // Second pass: cached metadata (child bits set above may have been copied
  // before the target's own links were repaired).
  for (PeerId id : order) {
    RefreshInboundRefs(N(id), std::nullopt);
  }
}

void BatonNetwork::RebuildRoutingTables(BatonNode* x, bool charge) {
  // The reverse entries below go to other nodes, never into x's own row, so
  // clearing both sides first equals clearing each side before filling it.
  levels_[x->pos.level].rows.Clear(x->row);
  for (bool left : {true, false}) {
    for (int i = 0; i < x->TableSize(left); ++i) {
      Position slot = RoutingTable::SlotPosition(x->pos, left, i);
      PeerId occ = OccupantOf(slot);
      if (occ == kNullPeer) continue;
      BatonNode* nb = N(occ);
      // One message informs nb of x's location and returns nb's metadata;
      // nb installs the reverse entry from the same exchange. (The directory
      // lookup stands in for the handover/probe that delivered nb's address;
      // Theorem 2 puts that information one already-charged hop away.)
      if (charge) Count(x->id, nb->id, net::MsgType::kTableUpdate);
      SetTableEntry(x->id, left, i, nb->SelfRef());
      SendRefUpdate(occ, left ? RefKind::kRightRt : RefKind::kLeftRt, i,
                    x->SelfRef());
    }
  }
}

void BatonNetwork::ClearReverseEntriesAt(const Position& pos, PeerId notifier) {
  NodeRef cleared;  // peer == kNullPeer: "clear if you still point at pos"
  cleared.pos = pos;
  for (int side = 0; side < 2; ++side) {
    bool left = side == 0;  // looking from `pos` toward its left/right peers
    int slots = RoutingTable::NumSlots(pos, left);
    for (int i = 0; i < slots; ++i) {
      Position nb_pos = RoutingTable::SlotPosition(pos, left, i);
      PeerId occ = OccupantOf(nb_pos);
      if (occ == kNullPeer) continue;
      // nb's entry pointing back at `pos` sits on its opposite side table.
      Count(notifier, occ, net::MsgType::kTableUpdate);
      SendRefUpdate(occ, left ? RefKind::kRightRt : RefKind::kLeftRt, i,
                    cleared);
    }
  }
}

}  // namespace baton
