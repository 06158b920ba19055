// Index operations (section IV) and fault-tolerant routing (section III-D).
//
// Every hop decision uses only the local node's range and the ranges cached
// on its links, exactly as the paper's search_exact algorithm prescribes.
#include <algorithm>

#include "baton/baton_network.h"

namespace baton {

PeerId BatonNetwork::NextHop(const BatonNode* at, Key key) const {
  // Reads only the hot parts of the tables: a right-table entry's bound is
  // its range.lo, a left-table entry's its range.hi.
  if (at->range.Contains(key)) return kNullPeer;
  if (key >= at->range.hi) {
    // Rightward: the farthest right-table node whose lower bound is <= key.
    const RouteHot* rt = HotEntries(at, /*left=*/false);
    for (int i = at->right_slots - 1; i >= 0; --i) {
      if (rt[i].peer != kNullPeer && rt[i].bound <= key) {
        PrefetchHop(at, rt[i], /*left=*/false);
        return rt[i].peer;
      }
    }
    if (at->right_child.valid()) return at->right_child.peer;
    if (at->right_adj.valid()) return at->right_adj.peer;
    return kNullPeer;  // rightmost node: key beyond the domain
  }
  // Leftward mirror: the farthest left-table node whose upper bound is > key.
  const RouteHot* lt = HotEntries(at, /*left=*/true);
  for (int i = at->left_slots - 1; i >= 0; --i) {
    if (lt[i].peer != kNullPeer && lt[i].bound > key) {
      PrefetchHop(at, lt[i], /*left=*/true);
      return lt[i].peer;
    }
  }
  if (at->left_child.valid()) return at->left_child.peer;
  if (at->left_adj.valid()) return at->left_adj.peer;
  return kNullPeer;  // leftmost node: key before the domain
}

std::vector<PeerId> BatonNetwork::AlternativeHops(const BatonNode* at,
                                                  Key key) const {
  // Candidates that still make monotone progress toward the key, best
  // (farthest jump) first. Next, same-level entries that fall short of the
  // key (nearest first): lateral moves around the dead region that approach
  // the target from the far side -- the sideways variant of III-D's
  // "neighbour of the parent" repair. The parent is last: it can bounce the
  // route back down, so it is only a final resort.
  std::vector<PeerId> out;
  if (key >= at->range.hi) {
    const RouteHot* rt = HotEntries(at, /*left=*/false);
    for (int i = at->right_slots - 1; i >= 0; --i) {
      if (rt[i].peer != kNullPeer && rt[i].bound <= key) {
        out.push_back(rt[i].peer);
      }
    }
    if (at->right_child.valid()) out.push_back(at->right_child.peer);
    if (at->right_adj.valid()) out.push_back(at->right_adj.peer);
    for (int i = 0; i < at->right_slots; ++i) {
      if (rt[i].peer != kNullPeer && rt[i].bound > key) {
        out.push_back(rt[i].peer);
      }
    }
  } else {
    const RouteHot* lt = HotEntries(at, /*left=*/true);
    for (int i = at->left_slots - 1; i >= 0; --i) {
      if (lt[i].peer != kNullPeer && lt[i].bound > key) {
        out.push_back(lt[i].peer);
      }
    }
    if (at->left_child.valid()) out.push_back(at->left_child.peer);
    if (at->left_adj.valid()) out.push_back(at->left_adj.peer);
    for (int i = 0; i < at->left_slots; ++i) {
      if (lt[i].peer != kNullPeer && lt[i].bound <= key) {
        out.push_back(lt[i].peer);
      }
    }
  }
  if (at->parent.valid()) out.push_back(at->parent.peer);
  return out;
}

Result<BatonNetwork::RouteOutcome> BatonNetwork::RouteToKey(
    PeerId from, Key key, net::MsgType hop_type) {
  if (!InOverlay(from)) {
    return Status::InvalidArgument("query origin is not an overlay member");
  }
  const BatonNode* cur = N(from);
  RouteOutcome out;
  int guard = config_.max_hops_factor * (Height() + 2) + 8;
  while (true) {
    if (--guard < 0) {
      return Status::Exhausted("hop budget exceeded routing to key " +
                               std::to_string(key));
    }
    PeerId next = NextHop(cur, key);
    if (next == kNullPeer) {
      out.node = cur->id;
      return out;
    }
    if (!net_->IsAlive(next)) {
      // Timeout on the preferred hop; detour via an alternative (III-D).
      Count(cur->id, next, net::MsgType::kDeadProbe);
      PeerId alt = kNullPeer;
      for (PeerId cand : AlternativeHops(cur, key)) {
        if (cand == next) continue;
        if (net_->IsAlive(cand)) {
          alt = cand;
          break;
        }
        Count(cur->id, cand, net::MsgType::kDeadProbe);
      }
      if (alt == kNullPeer) {
        return Status::Unavailable("no live route toward key " +
                                   std::to_string(key));
      }
      next = alt;
    }
    Count(cur->id, next, hop_type);
    ++out.hops;
    cur = N(next);
  }
}

Result<BatonNetwork::SearchResult> BatonNetwork::ExactSearch(PeerId from,
                                                             Key key) {
  auto routed = RouteToKey(from, key, net::MsgType::kExactQuery);
  if (!routed.ok()) return routed.status();
  SearchResult res;
  res.node = routed.value().node;
  res.hops = routed.value().hops;
  const BatonNode* owner = N(res.node);
  res.found = owner->range.Contains(key) && owner->data.Contains(key);
  return res;
}

Result<BatonNetwork::RangeResult> BatonNetwork::RangeSearch(PeerId from,
                                                            Key lo, Key hi) {
  if (lo >= hi) return Status::InvalidArgument("empty range");
  // Route to the first node intersecting [lo, hi) -- same as routing to lo
  // (clamped into the domain so boundary queries land on the edge node).
  Key target = std::max(lo, config_.domain_lo);
  auto routed = RouteToKey(from, target, net::MsgType::kRangeQuery);
  if (!routed.ok()) return routed.status();

  RangeResult res;
  res.hops = routed.value().hops;
  const BatonNode* cur = N(routed.value().node);
  // "We then proceed ... right to cover the remainder of the searched
  // range": one scan message per additional intersecting node. The scan is
  // disseminated as a delegation tree rather than a pure adjacent-link
  // relay: a node responsible for covering [its range, `bound`) that holds
  // a fresh, live right-routing-table entry e splitting that interval
  // forwards the scan to BOTH e (which then covers [e.lo, bound)) and its
  // right adjacent (now bounded by e.lo). On a live, converged network
  // every intersecting node receives exactly one scan message -- message
  // counts, hop counts and the left-to-right visit order (delegations are
  // processed depth-first, near branch first) are identical to the
  // sequential relay -- but the chain of X nodes is contacted in O(log X)
  // parallel rounds, which is what the sim/ critical-path clock measures.
  // Around failed neighbours the scan falls back to the III-D repair path
  // below, which is best-effort: with delegations outstanding, its cost can
  // differ from the purely sequential scan's repair.
  std::vector<std::pair<const BatonNode*, Key>> pending;
  Key bound = hi;
  int guard = 2 * static_cast<int>(size()) + 16;
  while (true) {
    BATON_CHECK_GE(--guard, 0);
    if (cur->range.hi < bound && cur->right_adj.valid()) {
      // The scan's next step reads the adjacent node's first three lines
      // (range and row, right_adj, key bag): fetch them while this step
      // counts its keys and looks for a jump.
      const char* next = reinterpret_cast<const char*>(N(cur->right_adj.peer));
      for (int line = 0; line < 3; ++line) __builtin_prefetch(next + 64 * line);
    }
    if (cur->range.Intersects(lo, hi)) {
      res.nodes.push_back(cur->id);
      res.matches += cur->data.CountInRange(lo, hi);
    }
    if (cur->range.hi >= bound || !cur->right_adj.valid()) {
      if (pending.empty()) break;
      cur = pending.back().first;
      bound = pending.back().second;
      pending.pop_back();
      continue;
    }
    PeerId next = cur->right_adj.peer;
    if (!net_->IsAlive(next)) {
      // Skip over the failed neighbour: its keys are unavailable, but the
      // scan can resume at the next live range (repair path of III-D).
      Count(cur->id, next, net::MsgType::kDeadProbe);
      Key resume = cur->right_adj.range.hi;
      if (resume >= bound) {
        if (pending.empty()) break;
        cur = pending.back().first;
        bound = pending.back().second;
        pending.pop_back();
        continue;
      }
      auto rerouted = RouteToKey(cur->id, resume, net::MsgType::kRangeScan);
      if (!rerouted.ok()) break;
      res.hops += rerouted.value().hops;
      cur = N(rerouted.value().node);
      continue;
    }
    // Fan-out: delegate the far part of [cur.range.hi, bound) to the
    // farthest routing-table entry strictly inside it. Only entries whose
    // cached range start matches the target's current range are used -- a
    // stale split point would make the delegated intervals overlap or leave
    // a gap (routing entries are actively refreshed, so staleness is
    // transient and the scan merely falls back to the adjacent relay).
    const RouteHot* rt = HotEntries(cur, /*left=*/false);
    const RouteHot* jump = nullptr;
    for (int i = cur->right_slots - 1; i >= 0; --i) {
      const RouteHot& e = rt[i];  // e.bound is the entry's cached range.lo
      if (e.peer == kNullPeer || e.peer == next) continue;
      if (e.bound <= cur->range.hi || e.bound >= bound) continue;
      if (!InOverlay(e.peer) || !net_->IsAlive(e.peer)) continue;
      if (N(e.peer)->range.lo != e.bound) continue;
      jump = &e;
      break;
    }
    if (jump != nullptr) {
      Count(cur->id, jump->peer, net::MsgType::kRangeScan);
      ++res.hops;
      pending.emplace_back(N(jump->peer), bound);
      bound = jump->bound;
    }
    Count(cur->id, next, net::MsgType::kRangeScan);
    ++res.hops;
    cur = N(next);
  }
  return res;
}

Status BatonNetwork::Insert(PeerId from, Key key) {
  auto routed = RouteToKey(from, key, net::MsgType::kInsert);
  if (!routed.ok()) return routed.status();
  BatonNode* owner = N(routed.value().node);
  if (!owner->range.Contains(key)) {
    // Domain expansion at the edge nodes (section IV-C): the leftmost or
    // rightmost node widens its range and must refresh the links caching it,
    // "an additional log N step for updating its routing tables".
    if (key < owner->range.lo && !owner->left_adj.valid()) {
      owner->range.lo = key;
    } else if (key >= owner->range.hi && !owner->right_adj.valid()) {
      owner->range.hi = key + 1;
    } else {
      return Status::Internal("routing terminated off-range at node " +
                              owner->pos.ToString());
    }
    RefreshInboundRefs(owner, net::MsgType::kRangeUpdate);
  }
  owner->data.Insert(key);
  ++total_keys_;
  ReplicateInsert(owner, key);
  MaybeLoadBalance(owner);
  return Status::OK();
}

Status BatonNetwork::Delete(PeerId from, Key key) {
  auto routed = RouteToKey(from, key, net::MsgType::kDelete);
  if (!routed.ok()) return routed.status();
  BatonNode* owner = N(routed.value().node);
  if (!owner->data.Erase(key)) {
    return Status::NotFound("key " + std::to_string(key));
  }
  --total_keys_;
  ReplicateErase(owner, key);
  return Status::OK();
}

}  // namespace baton
