// Hot-path caching for overlay lookups (ROADMAP item 3).
//
// The paper charges O(log N) passing messages for *every* exact query, even
// when a Zipf workload hammers a handful of hot keys. Two cooperating,
// backend-neutral layers cut that cost without touching any protocol code:
//
//  * Per-node route cache -- a bounded LRU map of (routing-range -> owning
//    peer) entries learned from completed lookups. The query origin consults
//    its own cache and, on a hit, jumps straight at the remembered owner:
//    one kCacheProbe message, answered iff the owner still owns the key.
//    A stale hit (churn moved the range) wastes exactly that probe, evicts
//    the entry and falls back to the normal protocol walk -- correctness
//    never depends on cache freshness.
//  * Replicated root fast-table -- the top k tree levels (Chord: a 2^k-arc
//    finger prefix of the ring) mirrored at every node and refreshed lazily
//    when a membership change bumps the table version. A cold lookup jumps
//    to the deepest fast-table region containing the key, cutting the first
//    ~k hops off the protocol walk.
//
// Everything lives in routing-coordinate space (uint64): tree backends use
// the key itself, Chord uses HashKey(key), so one Manager serves all four
// backends. Intervals are half-open [lo, hi) with two ring conventions:
// hi == 0 (and lo != 0) means "up to the end of the space", lo == hi == 0
// means "everything" -- which lets a wrapped Chord interval be learned as
// two plain entries and keeps lookups a single binary search.
//
// The Manager attaches per overlay::Overlay instance (AttachCache), same
// lifecycle as the sim/obs/fault attachments: opt-in, non-owning, nullptr
// detaches, and a detached overlay pays one null check with byte-identical
// output. All state is deterministic: no clocks, no randomness -- the same
// operation sequence always produces the same hit/evict sequence.
#ifndef BATON_CACHE_CACHE_H_
#define BATON_CACHE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/network.h"

namespace baton {
namespace cache {

/// Sizing knobs, set once at construction (bench flag: --cache=SIZE[,k]).
struct Config {
  /// Route-cache entries retained per origin node (LRU beyond this).
  size_t capacity = 256;
  /// Tree levels replicated in the fast-table; 0 disables the fast-table
  /// (the route cache still works).
  int root_levels = 2;
};

/// One learned (routing-range -> owner) fact, plus the hop cost of the
/// lookup that learned it (to report hops_saved on later hits).
struct RouteEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  net::PeerId owner = net::kNullPeer;
  int cost = 0;        // hops of the lookup this entry was learned from
  uint64_t stamp = 0;  // per-node LRU recency tick
};

/// One replicated fast-table region: the deepest entry containing a
/// routing coordinate is the jump target for a cold lookup.
struct FastEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
  net::PeerId peer = net::kNullPeer;
  int depth = 0;
};

/// Monotonic lifetime counters.
struct Stats {
  uint64_t hits = 0;           // verified route-cache hits
  uint64_t misses = 0;         // consults that found no entry
  uint64_t stale = 0;          // hits refuted by the owner (probe wasted)
  uint64_t evictions = 0;      // capacity + staleness evictions
  uint64_t invalidations = 0;  // entries dropped by invalidation hooks
  uint64_t fast_hits = 0;      // cold lookups that took a fast-table jump
  uint64_t refreshes = 0;      // per-node lazy fast-table refreshes
  uint64_t refresh_msgs = 0;   // kCacheRefresh messages those refreshes cost
};

/// Wrap-aware containment for half-open [lo, hi) routing intervals:
/// lo == hi covers the whole space, hi < lo wraps past the end of it.
/// Used to check a learned or hinted interval against a coordinate.
inline bool RangeContains(uint64_t lo, uint64_t hi, uint64_t c) {
  if (lo == hi) return true;
  if (lo < hi) return c >= lo && c < hi;
  return c >= lo || c < hi;
}

/// The caching state for one overlay instance: every member's route cache
/// plus the shared fast-table snapshot and its version clock.
class Manager {
 public:
  explicit Manager(const Config& cfg = Config());

  const Config& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }

  // ---- Per-node route cache ----------------------------------------------
  /// Consults `node`'s cache for the entry covering `rk`. Returns the entry
  /// slot (>= 0, for EvictStale) and fills `*out`, or -1 on miss. A found
  /// entry's recency is bumped; hit/miss/stale accounting is the caller's
  /// (only the caller knows whether the owner verified the hit).
  int Lookup(net::PeerId node, uint64_t rk, RouteEntry* out);
  /// Records that `owner` answered for the interval [lo, hi) after a lookup
  /// of `cost` hops. Wrapped intervals are split; overlapped older entries
  /// are dropped; the LRU entry is evicted at capacity.
  void Learn(net::PeerId node, uint64_t lo, uint64_t hi, net::PeerId owner,
             int cost);
  /// Drops the entry at `slot` of `node`'s cache (a refuted hit).
  void EvictStale(net::PeerId node, int slot);
  /// Drops every entry (any node's cache) pointing at `owner` -- hook for
  /// the leave/fail paths, where the departed peer answers nothing.
  void InvalidatePeer(net::PeerId owner);
  /// Drops every entry intersecting [lo, hi) -- hook for the join/leave/
  /// fail paths, where ownership of that interval moved.
  void InvalidateRange(uint64_t lo, uint64_t hi);

  void NoteHit() { ++stats_.hits; }
  void NoteMiss() { ++stats_.misses; }

  // ---- Replicated root fast-table ----------------------------------------
  bool fast_enabled() const { return cfg_.root_levels > 0; }
  /// A membership change happened: every node's mirror (and the shared
  /// snapshot) is now out of date and will be refreshed lazily.
  void BumpVersion() { ++version_; }
  /// Does `node` need to pull a fresh fast-table before consulting it?
  bool NeedsRefresh(net::PeerId node) const;
  /// Must the overlay rebuild the shared snapshot (CollectFastTable) before
  /// serving refreshes at the current version?
  bool SnapshotStale() const { return snapshot_version_ != version_; }
  void InstallSnapshot(std::vector<FastEntry> entries);
  const std::vector<FastEntry>& fast_entries() const { return fast_; }
  /// Marks `node`'s mirror current and accounts `billed_msgs` refresh
  /// messages (the caller bills them on the network).
  void MarkRefreshed(net::PeerId node, uint64_t billed_msgs);
  void NoteFastHit() { ++stats_.fast_hits; }
  /// Deepest fast-table entry containing `rk`, or nullptr.
  const FastEntry* FastLookup(uint64_t rk) const;

  /// Total live route-cache entries across all nodes (tests/benches).
  size_t TotalEntries() const { return total_entries_; }
  /// Live route-cache entries for one node (capacity-bound tests).
  size_t EntriesFor(net::PeerId node) const;

 private:
  struct NodeCache {
    std::vector<RouteEntry> entries;  // sorted by lo, non-overlapping
    uint64_t tick = 0;                // LRU clock, bumped per touch
    uint64_t refreshed_version = 0;   // fast-table version last mirrored
  };

  /// [lo, hi) contains `rk`, given rk >= lo (the sorted-search invariant);
  /// honours the hi == 0 "end of space" convention.
  static bool SlotContains(const RouteEntry& e, uint64_t rk) {
    return e.hi == 0 || rk < e.hi;
  }
  void InsertEntry(NodeCache* nc, uint64_t lo, uint64_t hi,
                   net::PeerId owner, int cost);
  /// nodes_[node], grown on demand.
  NodeCache& CacheOf(net::PeerId node);

  Config cfg_;
  Stats stats_;
  std::vector<NodeCache> nodes_;  // indexed by origin PeerId
  size_t total_entries_ = 0;

  std::vector<FastEntry> fast_;
  uint64_t version_ = 1;  // starts dirty: first consult pulls a snapshot
  uint64_t snapshot_version_ = 0;
};

}  // namespace cache
}  // namespace baton

#endif  // BATON_CACHE_CACHE_H_
