// Load balancing (section IV-D).
//
// A non-leaf node balances only with its adjacent nodes (shifting the range
// boundary). An overloaded leaf first tries its adjacents; if they are also
// loaded it recruits a lightly loaded leaf found through its routing tables
// ("our practical experience suggests that the neighbor tables suffice"),
// which hands its content to its own adjacent node, leaves its position, and
// rejoins as the overloaded node's in-order neighbour taking half its
// content -- with forced restructuring when the tree would lose balance.
#include <algorithm>
#include <cmath>

#include "baton/baton_network.h"

namespace baton {
namespace {

/// A recruit candidate is "lightly loaded" below this fraction of the
/// effective overload threshold.
constexpr double kUnderloadFraction = 0.25;

}  // namespace

size_t BatonNetwork::EffectiveOverloadThreshold() const {
  if (config_.overload_factor > 0.0) {
    double avg = size() == 0 ? 0.0
                             : static_cast<double>(total_keys_) /
                                   static_cast<double>(size());
    auto adaptive = static_cast<size_t>(config_.overload_factor * avg);
    return std::max<size_t>(16, adaptive);
  }
  return config_.overload_threshold;
}

void BatonNetwork::MaybeLoadBalance(BatonNode* v) {
  if (!config_.enable_load_balance) return;
  if (v->data.size() <= EffectiveOverloadThreshold()) return;
  if (v->data.size() < v->lb_retry_at) return;  // backing off

  if (TryAdjacentBalance(v)) {
    ++lb_ops_;
    v->lb_retry_at = 0;
    return;
  }
  if (config_.enable_remote_recruit && v->IsLeaf() && TryRemoteRecruit(v)) {
    ++lb_ops_;
    v->lb_retry_at = 0;
    return;
  }
  // Nothing helped: back off until the load grows another ~10%.
  v->lb_retry_at = v->data.size() + v->data.size() / 10 + 1;
}

bool BatonNetwork::TryAdjacentBalance(BatonNode* v) {
  // Probe both adjacents for their current load.
  BatonNode* best = nullptr;
  for (const NodeRef* adj : {&v->left_adj, &v->right_adj}) {
    if (!adj->valid() || !net_->IsAlive(adj->peer)) continue;
    Count(v->id, adj->peer, net::MsgType::kLoadProbe);
    Count(adj->peer, v->id, net::MsgType::kLoadProbeReply);
    BatonNode* a = N(adj->peer);
    if (best == nullptr || a->data.size() < best->data.size()) best = a;
  }
  if (best == nullptr) return false;

  // Even out the two loads when the neighbour is meaningfully lighter (at
  // most half this node's load). Even if both sides stay warm, the shed load
  // reaches leaves whose remote recruiting (below) carries it out of the hot
  // region -- that, not pure migration, is what stops the "ripple through
  // the network" the paper warns about.
  size_t total = v->data.size() + best->data.size();
  if (best->data.size() * 2 > v->data.size()) return false;
  size_t give = v->data.size() - total / 2;
  if (give == 0) return false;

  bool to_left = best->id == v->left_adj.peer;
  // The new boundary must be a key value so duplicates never straddle it:
  // pick the first kept key and move everything strictly below (mirrored on
  // the right).
  if (to_left) {
    Key boundary = v->data.Kth(give);
    KeyBag moved = v->data.ExtractBelow(boundary);
    if (moved.empty()) return false;  // all keys equal: cannot split
    Count(v->id, best->id, net::MsgType::kLoadMove);
    BATON_CHECK_EQ(best->range.hi, v->range.lo);
    best->range.hi = boundary;
    v->range.lo = boundary;
    best->data.Absorb(&moved);
  } else {
    Key boundary = v->data.Kth(v->data.size() - give);
    KeyBag moved = v->data.ExtractAtLeast(boundary);
    if (moved.empty() || v->data.empty()) {
      v->data.Absorb(&moved);  // undo: boundary degenerated
      return false;
    }
    Count(v->id, best->id, net::MsgType::kLoadMove);
    BATON_CHECK_EQ(v->range.hi, best->range.lo);
    best->range.lo = boundary;
    v->range.hi = boundary;
    best->data.Absorb(&moved);
  }
  // "Whenever this range changes, the link has to be modified to record the
  // change": both nodes refresh the links caching their ranges, and both
  // re-sync their replicas with the moved keys.
  RefreshInboundRefs(v, net::MsgType::kRangeUpdate);
  RefreshInboundRefs(best, net::MsgType::kRangeUpdate);
  ReplicateFullSync(v);
  ReplicateFullSync(best);
  return true;
}

bool BatonNetwork::TryRemoteRecruit(BatonNode* v) {
  BATON_CHECK(v->IsLeaf());
  // A range too narrow to split cannot shed load to a recruit (the overload
  // is pure duplication of a handful of key values).
  if (v->range.Width() < 2) return false;
  size_t light_cap =
      static_cast<size_t>(static_cast<double>(EffectiveOverloadThreshold()) *
                          kUnderloadFraction);

  // 1. Probe sideways neighbours for a lightly loaded leaf ("our practical
  //    experience suggests that the neighbor tables suffice").
  BatonNode* recruit = nullptr;
  for (bool left : {true, false}) {
    const RouteHot* rt = HotEntries(v, left);
    for (int i = 0; i < v->TableSize(left); ++i) {
      PeerId peer = rt[i].peer;
      if (peer == kNullPeer || !net_->IsAlive(peer)) continue;
      Count(v->id, peer, net::MsgType::kLoadProbe);
      Count(peer, v->id, net::MsgType::kLoadProbeReply);
      BatonNode* f = N(peer);
      if (!f->IsLeaf()) continue;
      if (f->data.size() >= light_cap) continue;
      if (recruit == nullptr || f->data.size() < recruit->data.size()) {
        recruit = f;
      }
    }
  }
  // Extension ([4], paper footnote 2): deep hot-region leaves often have no
  // same-level neighbours in shallow cold regions at all; a skip-list load
  // directory finds a light leaf globally.
  if (recruit == nullptr && config_.enable_recruit_directory) {
    recruit = DirectoryFindLightLeaf(v, light_cap);
  }
  if (recruit == nullptr) return false;
  return ExecuteRecruit(v, recruit);
}

BatonNode* BatonNetwork::DirectoryFindLightLeaf(BatonNode* asker,
                                                size_t light_cap) {
  // Stand-in for the skip-list structure of [4]: the traversal costs
  // O(log N) probe messages; the simulator answers with the lightest live
  // leaf. Nodes equal to the asker or adjacent to it are excluded (those
  // cases are already covered by adjacent balancing).
  int hops = static_cast<int>(std::log2(static_cast<double>(size()) + 1)) + 1;
  for (int i = 0; i < hops; ++i) {
    Count(asker->id, asker->id, net::MsgType::kLoadProbe);
  }
  // The walk goes level by level, left to right, and keeps the first of
  // equally light leaves, so the choice is a function of the tree state.
  BatonNode* best = nullptr;
  for (const Level& level : levels_) {
    for (PeerId id : level.occupant) {
      if (id == kNullPeer || id == asker->id || !net_->IsAlive(id)) continue;
      BatonNode* f = N(id);
      if (!f->IsLeaf() || f->data.size() >= light_cap) continue;
      if (best == nullptr || f->data.size() < best->data.size()) best = f;
    }
  }
  if (best != nullptr) {
    Count(best->id, asker->id, net::MsgType::kLoadProbeReply);
  }
  return best;
}

bool BatonNetwork::ExecuteRecruit(BatonNode* v, BatonNode* f) {
  // 2. f passes its content (and range) to an adjacent node.
  BatonNode* receiver = nullptr;
  bool to_right = false;
  if (f->right_adj.valid() && net_->IsAlive(f->right_adj.peer)) {
    receiver = N(f->right_adj.peer);
    to_right = true;
  } else if (f->left_adj.valid() && net_->IsAlive(f->left_adj.peer)) {
    receiver = N(f->left_adj.peer);
  }
  if (receiver == nullptr || receiver->id == v->id) return false;
  Count(f->id, receiver->id, net::MsgType::kLoadMove);
  receiver->data.Absorb(&f->data);
  if (to_right) {
    BATON_CHECK_EQ(f->range.hi, receiver->range.lo);
    receiver->range.lo = f->range.lo;
  } else {
    BATON_CHECK_EQ(receiver->range.hi, f->range.lo);
    receiver->range.hi = f->range.hi;
  }
  RefreshInboundRefs(receiver, net::MsgType::kRangeUpdate);

  // 3. f leaves its position. Redirection is not permitted here (the whole
  //    point is to move f next to v), so an unsafe departure restructures.
  bool f_left_of_v = InOrderBefore(f->pos, v->pos);
  Position vacated = f->pos;
  BatonNode* pred = NodeOrNull(f->left_adj);
  BatonNode* succ = NodeOrNull(f->right_adj);
  bool safe = SafeToRemove(f);
  DetachLeaf(f);
  int shifts = 0;
  if (!safe) shifts += FillVacancy(vacated, pred, succ, /*prefer_left=*/true);

  // 4. f rejoins next to v, taking the lower half of v's content; the shift
  //    chain walks toward f's old neighbourhood, where a slot was freed.
  shifts += ForcedJoin(v, f, /*splice_before=*/true,
                       /*prefer_right=*/!f_left_of_v);
  shift_sizes_.Add(shifts);
  // Three bags changed hands: the receiver absorbed f's content, v shed half
  // of its own to f. Each re-syncs its replicas (f recruits a fresh set; its
  // old one was dropped when it detached).
  ReplicateFullSync(receiver);
  ReplicateFullSync(v);
  ReplicateFullSync(f);
  return true;
}

}  // namespace baton
