#include "cache/cache.h"

#include <algorithm>

namespace baton {
namespace cache {

namespace {

/// Wrap-aware interval intersection under the same [lo, hi) conventions as
/// RangeContains: two intervals meet iff either contains the other's start.
bool Intersects(uint64_t alo, uint64_t ahi, uint64_t blo, uint64_t bhi) {
  return RangeContains(alo, ahi, blo) || RangeContains(blo, bhi, alo);
}

}  // namespace

Manager::Manager(const Config& cfg) : cfg_(cfg) {
  if (cfg_.root_levels < 0) cfg_.root_levels = 0;
  if (cfg_.root_levels > 16) cfg_.root_levels = 16;
}

int Manager::Lookup(net::PeerId node, uint64_t rk, RouteEntry* out) {
  if (node >= nodes_.size()) return -1;
  NodeCache* nc = &nodes_[node];
  std::vector<RouteEntry>& v = nc->entries;
  if (v.empty()) return -1;
  // Greatest lo <= rk; entries are sorted by lo and non-overlapping, so it
  // is the only candidate that can contain rk.
  auto it = std::upper_bound(
      v.begin(), v.end(), rk,
      [](uint64_t k, const RouteEntry& e) { return k < e.lo; });
  if (it == v.begin()) return -1;
  --it;
  if (!SlotContains(*it, rk)) return -1;
  it->stamp = ++nc->tick;
  *out = *it;
  return static_cast<int>(it - v.begin());
}

Manager::NodeCache& Manager::CacheOf(net::PeerId node) {
  if (node >= nodes_.size()) nodes_.resize(size_t{node} + 1);
  return nodes_[node];
}

void Manager::InsertEntry(NodeCache* nc, uint64_t lo, uint64_t hi,
                          net::PeerId owner, int cost) {
  std::vector<RouteEntry>& v = nc->entries;
  auto at = std::lower_bound(
      v.begin(), v.end(), lo,
      [](const RouteEntry& e, uint64_t k) { return e.lo < k; });
  size_t first = static_cast<size_t>(at - v.begin());
  size_t last = first;
  if (lo == 0 && hi == 0) {  // full-space entry supersedes everything
    first = 0;
    last = v.size();
  } else {
    while (last < v.size() && (hi == 0 || v[last].lo < hi)) ++last;
    // A predecessor reaching past lo is truncated, keeping entries
    // non-overlapping (its shortened tail is the freshly learned fact).
    if (first > 0 && SlotContains(v[first - 1], lo) &&
        !(v[first - 1].lo == 0 && v[first - 1].hi == 0)) {
      v[first - 1].hi = lo;
    }
  }
  total_entries_ -= last - first;
  v.erase(v.begin() + static_cast<long>(first),
          v.begin() + static_cast<long>(last));
  if (v.size() >= cfg_.capacity) {  // LRU eviction at capacity
    size_t victim = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      if (v[i].stamp < v[victim].stamp) victim = i;
    }
    v.erase(v.begin() + static_cast<long>(victim));
    if (victim < first) --first;
    ++stats_.evictions;
    --total_entries_;
  }
  RouteEntry e;
  e.lo = lo;
  e.hi = hi;
  e.owner = owner;
  e.cost = cost;
  e.stamp = ++nc->tick;
  v.insert(v.begin() + static_cast<long>(first), e);
  ++total_entries_;
}

void Manager::Learn(net::PeerId node, uint64_t lo, uint64_t hi,
                    net::PeerId owner, int cost) {
  if (cfg_.capacity == 0 || owner == net::kNullPeer) return;
  NodeCache& nc = CacheOf(node);
  if (lo == hi) {
    InsertEntry(&nc, 0, 0, owner, cost);  // owner spans the whole space
  } else if (lo < hi) {
    InsertEntry(&nc, lo, hi, owner, cost);
  } else {
    // Wrapped (hash-ring) interval: split at the end of the space so every
    // stored entry searches as a plain sorted range.
    InsertEntry(&nc, lo, 0, owner, cost);
    if (hi > 0) InsertEntry(&nc, 0, hi, owner, cost);
  }
}

void Manager::EvictStale(net::PeerId node, int slot) {
  if (node >= nodes_.size()) return;
  std::vector<RouteEntry>& v = nodes_[node].entries;
  if (slot < 0 || static_cast<size_t>(slot) >= v.size()) return;
  v.erase(v.begin() + slot);
  ++stats_.stale;
  ++stats_.evictions;
  --total_entries_;
}

void Manager::InvalidatePeer(net::PeerId owner) {
  for (NodeCache& nc : nodes_) {
    auto dead = std::remove_if(
        nc.entries.begin(), nc.entries.end(),
        [owner](const RouteEntry& e) { return e.owner == owner; });
    size_t removed = static_cast<size_t>(nc.entries.end() - dead);
    nc.entries.erase(dead, nc.entries.end());
    stats_.invalidations += removed;
    total_entries_ -= removed;
  }
}

void Manager::InvalidateRange(uint64_t lo, uint64_t hi) {
  for (NodeCache& nc : nodes_) {
    auto dead = std::remove_if(
        nc.entries.begin(), nc.entries.end(), [lo, hi](const RouteEntry& e) {
          return Intersects(e.lo, e.hi, lo, hi);
        });
    size_t removed = static_cast<size_t>(nc.entries.end() - dead);
    nc.entries.erase(dead, nc.entries.end());
    stats_.invalidations += removed;
    total_entries_ -= removed;
  }
}

bool Manager::NeedsRefresh(net::PeerId node) const {
  if (!fast_enabled()) return false;
  uint64_t mirrored = node < nodes_.size() ? nodes_[node].refreshed_version : 0;
  return mirrored != version_;
}

void Manager::InstallSnapshot(std::vector<FastEntry> entries) {
  fast_ = std::move(entries);
  snapshot_version_ = version_;
}

void Manager::MarkRefreshed(net::PeerId node, uint64_t billed_msgs) {
  CacheOf(node).refreshed_version = version_;
  ++stats_.refreshes;
  stats_.refresh_msgs += billed_msgs;
}

const FastEntry* Manager::FastLookup(uint64_t rk) const {
  const FastEntry* best = nullptr;
  for (const FastEntry& e : fast_) {
    if (!RangeContains(e.lo, e.hi, rk)) continue;
    if (best == nullptr || e.depth > best->depth) best = &e;
  }
  return best;
}

size_t Manager::EntriesFor(net::PeerId node) const {
  return node < nodes_.size() ? nodes_[node].entries.size() : 0;
}

}  // namespace cache
}  // namespace baton
