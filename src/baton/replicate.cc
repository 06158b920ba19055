// Replication glue: feeds the overlay's link structure and per-node bags
// into the ReplicationManager (src/replication/). The manager owns the
// replica copies and charges the messages; this file decides *who* can hold
// a replica -- the peers a primary already has links to, so selecting and
// syncing holders never needs extra routing.
#include <algorithm>

#include "baton/baton_network.h"

namespace baton {

std::vector<PeerId> BatonNetwork::ReplicaCandidates(const BatonNode* x) const {
  std::vector<PeerId> out;
  auto add = [&](const NodeRef& ref) {
    if (!ref.valid() || ref.peer == x->id) return;
    if (!net_->IsAlive(ref.peer) || !InOverlay(ref.peer)) return;
    for (PeerId p : out) {
      if (p == ref.peer) return;
    }
    out.push_back(ref.peer);
  };
  // Adjacent (in-order neighbour) links first: their ranges border the
  // primary's, so a restored range stays local to the region that inherits
  // it. Then vertical links and sideways routing-table neighbours, needed to
  // reach factor > 2 and when adjacents are dead.
  add(x->left_adj);
  add(x->right_adj);
  add(x->parent);
  add(x->left_child);
  add(x->right_child);
  // Nearest sideways neighbours first: slot i links at distance 2^i.
  int slots = std::max(x->TableSize(true), x->TableSize(false));
  for (int i = 0; i < slots; ++i) {
    if (i < x->TableSize(true)) add(TableEntry(x->id, true, i));
    if (i < x->TableSize(false)) add(TableEntry(x->id, false, i));
  }
  return out;
}

void BatonNetwork::ReplicateFullSync(BatonNode* x, PeerId via) {
  if (!repl_->enabled()) return;
  if (!x->in_overlay) return;
  if (!net_->IsAlive(x->id)) {
    // x is a pending failure whose bag just changed (recovery handed it the
    // keys of a range it inherited). Only a relaying peer can bring x's
    // replicas up to date; without one they would silently diverge and a
    // later recovery of x would restore a copy missing those keys.
    if (via == kNullPeer) return;
    repl_->FullSync(x->id, x->data, ReplicaCandidates(x), via);
    return;
  }
  repl_->FullSync(x->id, x->data, ReplicaCandidates(x));
}

void BatonNetwork::ReplicateInsert(BatonNode* x, Key k) {
  if (!repl_->enabled()) return;
  repl_->PushInsert(x->id, k);
  // Opportunistic top-up: a node that joined a sparse neighbourhood -- or
  // whose holder just died -- may have fewer than r *live* replicas; its
  // next insert recruits from the links it currently has (anti-entropy
  // covers nodes that never see traffic). Gated on live holders: a dead
  // holder protects nothing, and waiting for its recovery would leave every
  // key inserted in the window unprotected.
  if (repl_->live_replica_count(x->id) <
      static_cast<size_t>(config_.replication.factor)) {
    repl_->TopUp(x->id, x->data, ReplicaCandidates(x));
  }
}

void BatonNetwork::ReplicateErase(BatonNode* x, Key k) {
  if (!repl_->enabled()) return;
  repl_->PushErase(x->id, k);
}

void BatonNetwork::ReplicaPeerGone(PeerId gone, bool graceful) {
  if (!repl_->enabled()) return;
  if (graceful) {
    // The departing holder hands replicas of dead pending failures to fresh
    // holders first -- once released below they would be gone for good.
    for (PeerId primary : repl_->HeldPrimaries(gone)) {
      if (InOverlay(primary) && !net_->IsAlive(primary)) {
        repl_->RelocateReplica(primary, gone, ReplicaCandidates(N(primary)));
      }
    }
  }
  for (PeerId primary : repl_->ReleaseHolder(gone)) {
    if (!InOverlay(primary) || !net_->IsAlive(primary)) continue;
    BatonNode* p = N(primary);
    repl_->TopUp(primary, p->data, ReplicaCandidates(p));
  }
}

void BatonNetwork::ReplicaDropPrimary(BatonNode* x) {
  if (!repl_->enabled()) return;
  repl_->DropPrimary(x->id, x->id, /*charge=*/net_->IsAlive(x->id));
}

replication::RepairStats BatonNetwork::RepairReplicas() {
  replication::RepairStats stats;
  if (!repl_->enabled()) return stats;
  for (PeerId id : Members()) {
    if (!net_->IsAlive(id)) continue;  // pending failure: recover first
    BatonNode* n = N(id);
    stats += repl_->Repair(id, n->data, ReplicaCandidates(n));
  }
  return stats;
}

}  // namespace baton
