#include "overlay/baton_overlay.h"

namespace baton {
namespace overlay {

BatonOverlay::BatonOverlay(const BatonConfig& cfg, uint64_t seed)
    : baton_(std::make_unique<BatonNetwork>(cfg, network(), seed)) {}

const std::string& BatonOverlay::name() const {
  static const std::string kName = "baton";
  return kName;
}

uint32_t BatonOverlay::capabilities() const {
  uint32_t caps =
      kRangeSearch | kFailRecovery | kLoadBalance | kOrderedGrowth;
  if (baton_->config().replication.factor > 0) caps |= kReplication;
  return caps;
}

PeerId BatonOverlay::RetryOrigin(PeerId origin, int attempt) const {
  if (!baton_->InOverlay(origin)) return origin;
  const BatonNode& n = baton_->node(origin);
  return CycleLinks(origin, attempt,
                    {n.left_adj.peer, n.right_adj.peer, n.parent.peer},
                    [&](PeerId p) { return baton_->InOverlay(p); });
}

bool BatonOverlay::RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const {
  if (!baton_->InOverlay(peer)) return false;
  const Range& r = baton_->node(peer).range;
  if (r.lo >= r.hi) return false;  // empty ranges must not hint
  *lo = static_cast<uint64_t>(r.lo);
  *hi = static_cast<uint64_t>(r.hi);
  return true;
}

namespace {

PeerId LeftmostOf(const BatonNetwork& bn, PeerId p) {
  while (bn.node(p).left_child.valid()) p = bn.node(p).left_child.peer;
  return p;
}

PeerId RightmostOf(const BatonNetwork& bn, PeerId p) {
  while (bn.node(p).right_child.valid()) p = bn.node(p).right_child.peer;
  return p;
}

/// One fast-table entry per tree node above `levels`, spanning the node's
/// whole subtree: a jump lands inside the subtree that owns the key, so the
/// remaining walk is bounded by the subtree height.
void CollectBatonSubtree(const BatonNetwork& bn, PeerId p, int depth,
                         int levels, std::vector<cache::FastEntry>* out) {
  const BatonNode& n = bn.node(p);
  const Key lo = bn.node(LeftmostOf(bn, p)).range.lo;
  const Key hi = bn.node(RightmostOf(bn, p)).range.hi;
  if (lo < hi) {
    out->push_back({static_cast<uint64_t>(lo), static_cast<uint64_t>(hi), p,
                    depth});
  }
  if (depth + 1 >= levels) return;
  if (n.left_child.valid()) {
    CollectBatonSubtree(bn, n.left_child.peer, depth + 1, levels, out);
  }
  if (n.right_child.valid()) {
    CollectBatonSubtree(bn, n.right_child.peer, depth + 1, levels, out);
  }
}

}  // namespace

void BatonOverlay::CollectFastTable(int levels,
                                    std::vector<cache::FastEntry>* out) const {
  if (levels <= 0) return;
  PeerId root = baton_->root();
  if (root == kNullPeer) return;
  CollectBatonSubtree(*baton_, root, 0, levels, out);
}

PeerId BatonOverlay::DoBootstrap() { return baton_->Bootstrap(); }

void BatonOverlay::DoJoin(PeerId contact, OpStats* st) {
  Fill(baton_->Join(contact), st);
}

void BatonOverlay::DoLeave(PeerId leaver, OpStats* st) {
  st->status = baton_->Leave(leaver);
}

void BatonOverlay::DoFail(PeerId victim, OpStats* st) {
  (void)st;
  baton_->Fail(victim);
}

void BatonOverlay::DoRecoverAllFailures(OpStats* st) {
  st->status = baton_->RecoverAllFailures();
}

void BatonOverlay::DoInsert(PeerId from, Key key, OpStats* st) {
  st->status = baton_->Insert(from, key);
}

void BatonOverlay::DoDelete(PeerId from, Key key, OpStats* st) {
  st->status = baton_->Delete(from, key);
}

void BatonOverlay::DoExactSearch(PeerId from, Key key, OpStats* st) {
  Fill(baton_->ExactSearch(from, key), st);
}

void BatonOverlay::DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) {
  Fill(baton_->RangeSearch(from, lo, hi), st);
}

}  // namespace overlay
}  // namespace baton
