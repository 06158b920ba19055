// D3-Tree routing: BST-style over the backbone. A query forwards to the
// origin's cluster representative, climbs while the key lies outside the
// subtree extent, descends by bucket-range comparison, and takes one final
// hop from the representative to the owning member (the representative's
// member table knows every member's range). Range queries then collect the
// remaining intersecting peers along the global in-order adjacency chain.
#include <algorithm>

#include "d3tree/d3tree_network.h"
#include "util/check.h"

namespace baton {
namespace d3tree {
namespace {

/// Safety net: routing aborts (Status::Exhausted) after
/// kMaxHopsFactor * (ceil(log2 N) + 4) hops.
constexpr int kMaxHopsFactor = 16;

}  // namespace

PeerId D3TreeNetwork::OwnerInBucket(const D3Bucket* b, Key key) const {
  const std::vector<PeerId>& ms = b->members;
  // First member whose range starts above the key; the owner precedes it.
  size_t lo = 0;
  size_t hi = ms.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (N(ms[mid])->range.lo <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  BATON_CHECK_GT(lo, 0u) << "key below the bucket range";
  PeerId owner = ms[lo - 1];
  BATON_CHECK(N(owner)->range.Contains(key));
  return owner;
}

Result<D3TreeNetwork::RouteOutcome> D3TreeNetwork::RouteToKey(
    PeerId from, Key key, net::MsgType hop_type) {
  if (from >= nodes_.size() || !N(from)->in_overlay) {
    return Status::InvalidArgument("query origin is not an overlay member");
  }
  Key k = std::clamp(key, config_.domain_lo, config_.domain_hi - 1);
  RouteOutcome res;
  if (N(from)->range.Contains(k)) {
    res.node = from;
    return res;
  }
  int guard = kMaxHopsFactor * (CeilLog2Size() + 4);

  BucketId cur = N(from)->bucket;
  PeerId at = from;
  if (at != RepOf(cur)) {
    Count(at, RepOf(cur), hop_type);
    ++res.hops;
    at = RepOf(cur);
  }
  // Climb to the subtree whose extent covers the key.
  while (!B(cur)->extent.Contains(k)) {
    if (--guard < 0) return Status::Exhausted("d3tree routing hop budget");
    BucketId p = B(cur)->parent;
    BATON_CHECK_NE(p, kNullBucket) << "root extent must cover the domain";
    Count(at, RepOf(p), hop_type);
    ++res.hops;
    cur = p;
    at = RepOf(p);
  }
  // Descend by bucket-range comparison.
  while (!B(cur)->range.Contains(k)) {
    if (--guard < 0) return Status::Exhausted("d3tree routing hop budget");
    BucketId next = k < B(cur)->range.lo ? B(cur)->left : B(cur)->right;
    BATON_CHECK_NE(next, kNullBucket)
        << "extent of bucket " << cur << " does not partition";
    Count(at, RepOf(next), hop_type);
    ++res.hops;
    cur = next;
    at = RepOf(next);
  }
  // The representative hands the query to the owning member.
  PeerId owner = OwnerInBucket(B(cur), k);
  if (owner != at) {
    Count(at, owner, hop_type);
    ++res.hops;
  }
  res.node = owner;
  return res;
}

Result<D3TreeNetwork::SearchResult> D3TreeNetwork::ExactSearch(PeerId from,
                                                               Key key) {
  auto routed = RouteToKey(from, key, net::MsgType::kD3Search);
  if (!routed.ok()) return routed.status();
  SearchResult res;
  res.node = routed.value().node;
  res.hops = routed.value().hops;
  const D3Node* owner = N(res.node);
  res.found = owner->range.Contains(key) && owner->data.Contains(key);
  return res;
}

Result<D3TreeNetwork::RangeResult> D3TreeNetwork::RangeSearch(PeerId from,
                                                              Key lo,
                                                              Key hi) {
  if (lo >= hi) return Status::InvalidArgument("empty range");
  auto routed = RouteToKey(from, lo, net::MsgType::kD3Search);
  if (!routed.ok()) return routed.status();
  RangeResult res;
  res.hops = routed.value().hops;
  const D3Node* cur = N(routed.value().node);
  int guard = static_cast<int>(live_count_) + 8;
  while (true) {
    BATON_CHECK_GE(--guard, 0);
    if (cur->range.Intersects(lo, hi)) {
      res.nodes.push_back(cur->id);
      res.matches += cur->data.CountInRange(lo, hi);
    }
    if (cur->range.hi >= hi || cur->right_adj == kNullPeer) break;
    Count(cur->id, cur->right_adj, net::MsgType::kD3RangeScan);
    ++res.hops;
    cur = N(cur->right_adj);
  }
  return res;
}

Status D3TreeNetwork::Insert(PeerId from, Key key) {
  if (key < config_.domain_lo || key >= config_.domain_hi) {
    return Status::InvalidArgument("key outside the domain");
  }
  auto routed = RouteToKey(from, key, net::MsgType::kInsert);
  if (!routed.ok()) return routed.status();
  N(routed.value().node)->data.Insert(key);
  ++total_keys_;
  return Status::OK();
}

Status D3TreeNetwork::Delete(PeerId from, Key key) {
  auto routed = RouteToKey(from, key, net::MsgType::kDelete);
  if (!routed.ok()) return routed.status();
  if (!N(routed.value().node)->data.Erase(key)) {
    return Status::NotFound("key " + std::to_string(key));
  }
  --total_keys_;
  return Status::OK();
}

}  // namespace d3tree
}  // namespace baton
