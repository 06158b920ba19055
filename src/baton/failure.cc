// Node failure (section III-C): a failed peer stops responding; messages to
// it are wasted (kDeadProbe) until its parent regenerates its routing state
// ("by contacting children of nodes in its own routing tables") and runs a
// graceful departure on its behalf. In the paper's index the failed node's
// keys are lost (it stores no replicas); with the replication subsystem
// enabled, recovery first restores them from the freshest live replica so
// only the range handover remains lossy-free. Either way the range is
// recovered and the partitioning stays contiguous.
#include <algorithm>
#include <iterator>

#include "baton/baton_network.h"

namespace baton {

void BatonNetwork::Fail(PeerId victim) {
  BATON_CHECK(InOverlay(victim));
  BATON_CHECK(net_->IsAlive(victim)) << "peer already failed";
  net_->MarkDead(victim);
  failed_.push_back(victim);
}

void BatonNetwork::RegenerateFailedState(BatonNode* x, BatonNode* initiator) {
  // The initiator rebuilds x's two routing tables by querying the children
  // of its own sideways neighbours (Theorem 2 puts every neighbour of x one
  // hop below a neighbour of x's parent) and locates x's children the same
  // way. In the simulator x's state object is still current -- the links
  // kept receiving updates -- so regeneration only needs to be *charged*.
  auto probe = [&](const NodeRef& e) {
    if (!e.valid() || !Probe(initiator->id, e.peer)) return;
    Count(initiator->id, e.peer, net::MsgType::kRecoveryProbe);
    Count(e.peer, initiator->id, net::MsgType::kRecoveryReply);
  };
  for (bool left : {true, false}) {
    for (int i = 0; i < x->TableSize(left); ++i) {
      probe(TableEntry(x->id, left, i));
    }
  }
  probe(x->left_child);
  probe(x->right_child);
}

bool BatonNetwork::TryRestoreContent(BatonNode* x, BatonNode* initiator) {
  if (!repl_->enabled()) return false;
  KeyBag restored;
  if (!repl_->Restore(x->id, initiator->id, &restored)) {
    return false;  // no live holder: the paper's lossy path applies
  }
  // Exact accounting against the simulator's ground truth (x's bag was never
  // physically sent anywhere): victim keys missing from the replica are
  // lost; every replica key re-enters the index. A stale copy may even
  // resurrect keys deleted after its last sync -- real anti-entropy
  // behaviour, visible in the counters.
  size_t at_risk = x->data.size();
  const std::vector<Key>& actual = x->data.SortedKeys();
  const std::vector<Key>& have = restored.SortedKeys();
  std::vector<Key> missing;
  std::set_difference(actual.begin(), actual.end(), have.begin(), have.end(),
                      std::back_inserter(missing));
  lost_keys_ += missing.size();
  recovered_keys_ += have.size();
  total_keys_ = total_keys_ - at_risk + have.size();
  x->data = std::move(restored);
  return true;
}

Status BatonNetwork::RecoverFailure(PeerId failed) {
  auto it = std::find(failed_.begin(), failed_.end(), failed);
  if (it == failed_.end()) {
    return Status::InvalidArgument("peer is not a pending failure");
  }
  BatonNode* x = N(failed);
  BATON_CHECK(x->in_overlay);

  if (size() == 1) {
    RemoveLastNode(x);
    failed_.erase(it);
    return Status::OK();
  }

  // Pick a live initiator: the parent if possible ("These nodes must report
  // this failure to node y, the parent of x"), else a child or adjacent.
  BatonNode* initiator = nullptr;
  for (const NodeRef* cand : {&x->parent, &x->left_child, &x->right_child,
                              &x->left_adj, &x->right_adj}) {
    if (cand->valid() && net_->IsAlive(cand->peer) && InOverlay(cand->peer)) {
      initiator = N(cand->peer);
      break;
    }
  }
  if (initiator == nullptr) {
    return Status::Unavailable("no live neighbour; recover others first");
  }
  Count(initiator->id, initiator->id, net::MsgType::kFailureReport);
  RegenerateFailedState(x, initiator);

  // The restore runs only once recovery is committed (all retriable
  // early-outs passed): the initiator pulls the victim's keys back from the
  // freshest replica, and whoever inherits the range below inherits them
  // through the normal content handover (charged from x's address -- the
  // initiator relays on the dead node's behalf).
  if (SafeToRemove(x)) {
    bool restored = TryRestoreContent(x, initiator);
    SafeLeaveAsLeaf(x, /*transfer_content=*/restored);
    failed_.erase(std::find(failed_.begin(), failed_.end(), failed));
    return Status::OK();
  }
  int hops = 0;
  PeerId zid = FindReplacementStart(x, &hops);
  if (zid == kNullPeer) {
    return Status::Unavailable("replacement search blocked by failures");
  }
  if (!LeaveHandshakeOk(N(zid), /*exempt_dead=*/x->id)) {
    return Status::Unavailable("replacement's parent link in flux; retry");
  }
  bool restored = TryRestoreContent(x, initiator);
  ReplaceNode(x, N(zid), /*content_lost=*/!restored);
  failed_.erase(std::find(failed_.begin(), failed_.end(), failed));
  return Status::OK();
}

Status BatonNetwork::RecoverAllFailures() {
  while (!failed_.empty()) {
    bool progress = false;
    std::vector<PeerId> snapshot = failed_;
    for (PeerId f : snapshot) {
      if (RecoverFailure(f).ok()) progress = true;
    }
    if (!progress) {
      return Status::Unavailable("failure recovery cannot make progress");
    }
  }
  return Status::OK();
}

}  // namespace baton
