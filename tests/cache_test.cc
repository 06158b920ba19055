// Tests for the hot-path caching subsystem (src/cache/): Manager interval
// semantics (wrap-aware containment, wrapped-interval splitting, the LRU
// capacity bound, invalidation), and the overlay-level contract on every
// registered backend -- cached answers identical to uncached ones, exact
// message accounting, stale routes repaired after leave/fail churn,
// membership ops dropping the routes they outdate, deterministic hit
// sequences, and byte-identical behaviour once detached.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "fixtures.h"
#include "overlay/baton_overlay.h"
#include "overlay/chord_overlay.h"
#include "overlay/registry.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace baton {
namespace {

using overlay::Capability;
using overlay::Config;
using overlay::Make;
using overlay::OpStats;
using overlay::Overlay;

constexpr Key kDomainHi = 1000000000;

// ---- Manager unit tests ----------------------------------------------------

TEST(CacheRange, ContainsConventions) {
  // Plain half-open interval.
  EXPECT_TRUE(cache::RangeContains(10, 20, 10));
  EXPECT_TRUE(cache::RangeContains(10, 20, 19));
  EXPECT_FALSE(cache::RangeContains(10, 20, 20));
  EXPECT_FALSE(cache::RangeContains(10, 20, 9));
  // lo == hi covers everything.
  EXPECT_TRUE(cache::RangeContains(7, 7, 0));
  EXPECT_TRUE(cache::RangeContains(7, 7, ~0ull));
  // hi < lo wraps past the end of the space.
  EXPECT_TRUE(cache::RangeContains(100, 5, 100));
  EXPECT_TRUE(cache::RangeContains(100, 5, 4));
  EXPECT_FALSE(cache::RangeContains(100, 5, 50));
}

TEST(CacheManager, LearnLookupAndWrapSplit) {
  cache::Manager m;
  cache::RouteEntry e;
  EXPECT_EQ(m.Lookup(1, 500, &e), -1);  // cold cache misses

  m.Learn(/*node=*/1, /*lo=*/100, /*hi=*/200, /*owner=*/42, /*cost=*/5);
  ASSERT_GE(m.Lookup(1, 150, &e), 0);
  EXPECT_EQ(e.owner, 42u);
  EXPECT_EQ(e.cost, 5);
  EXPECT_EQ(m.Lookup(1, 200, &e), -1);  // half-open: hi excluded
  EXPECT_EQ(m.Lookup(2, 150, &e), -1);  // per-node caches are private

  // A wrapped (ring) interval is stored as two plain entries.
  m.Learn(1, 900, 50, 7, 3);
  ASSERT_GE(m.Lookup(1, 950, &e), 0);
  EXPECT_EQ(e.owner, 7u);
  ASSERT_GE(m.Lookup(1, 10, &e), 0);
  EXPECT_EQ(e.owner, 7u);
  EXPECT_EQ(m.Lookup(1, 500, &e), -1);

  // Relearning an overlapping interval supersedes the old owner.
  m.Learn(1, 120, 260, 99, 2);
  ASSERT_GE(m.Lookup(1, 150, &e), 0);
  EXPECT_EQ(e.owner, 99u);
}

TEST(CacheManager, CapacityBoundAndLru) {
  cache::Config cfg;
  cfg.capacity = 4;
  cache::Manager m(cfg);
  for (uint64_t i = 0; i < 32; ++i) {
    m.Learn(1, i * 100, i * 100 + 50, /*owner=*/i + 2, /*cost=*/2);
    EXPECT_LE(m.EntriesFor(1), cfg.capacity);
  }
  EXPECT_EQ(m.EntriesFor(1), cfg.capacity);
  EXPECT_GT(m.stats().evictions, 0u);
  // The most recently learned entry survived; the oldest did not.
  cache::RouteEntry e;
  EXPECT_GE(m.Lookup(1, 3120, &e), 0);
  EXPECT_EQ(m.Lookup(1, 20, &e), -1);
}

TEST(CacheManager, InvalidatePeerAndRange) {
  cache::Manager m;
  m.Learn(1, 100, 200, 42, 2);
  m.Learn(1, 300, 400, 43, 2);
  m.Learn(2, 100, 200, 42, 2);
  m.InvalidatePeer(42);  // every node's entries for that owner drop
  cache::RouteEntry e;
  EXPECT_EQ(m.Lookup(1, 150, &e), -1);
  EXPECT_EQ(m.Lookup(2, 150, &e), -1);
  ASSERT_GE(m.Lookup(1, 350, &e), 0);
  m.InvalidateRange(350, 360);  // any intersection kills the entry
  EXPECT_EQ(m.Lookup(1, 350, &e), -1);
  EXPECT_GT(m.stats().invalidations, 0u);
}

// ---- Overlay-level contract, on every registered backend -------------------

using fixtures::Built;
using fixtures::Grow;

std::vector<Key> SomeKeys(uint64_t seed, int count) {
  workload::UniformKeys gen(1, kDomainHi);
  Rng rng(Mix64(seed ^ 0x7a3e));
  std::vector<Key> keys;
  for (int i = 0; i < count; ++i) keys.push_back(gen.Next(&rng));
  return keys;
}

/// Replays `keys` with a fresh origin stream; returns (peer, found) pairs.
std::vector<std::pair<net::PeerId, bool>> Answers(Built* b,
                                                  const std::vector<Key>& keys,
                                                  uint64_t seed) {
  std::vector<std::pair<net::PeerId, bool>> out;
  Rng org(Mix64(seed ^ 0x0b51));
  for (Key k : keys) {
    net::PeerId from = b->members[org.NextBelow(b->members.size())];
    OpStats st = b->ov->ExactSearch(from, k);
    EXPECT_TRUE(st.ok()) << st.status.ToString();
    out.emplace_back(st.peer, st.found);
  }
  return out;
}

// Cached answers (cold and warm) must equal uncached answers, and the warm
// pass must actually hit.
TEST(CacheOverlay, AnswerSetsIdenticalOnAllBackends) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 96, 17);
    std::vector<Key> keys = SomeKeys(17, 120);
    Rng ins(Mix64(17 ^ 0xdead));
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(b.ov->Insert(b.members[ins.NextBelow(b.members.size())],
                               keys[static_cast<size_t>(i)])
                      .ok());
    }
    auto reference = Answers(&b, keys, 17);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    auto cold = Answers(&b, keys, 17);
    auto warm = Answers(&b, keys, 17);
    b.ov->AttachCache(nullptr);
    EXPECT_EQ(cold, reference);
    EXPECT_EQ(warm, reference);
    EXPECT_GT(mgr.stats().hits, 0u) << "warm pass never hit the cache";
  }
}

// OpStats::messages must equal the raw counter delta with the cache
// attached too -- probes and refreshes are billed, not smuggled.
TEST(CacheOverlay, MessagesMatchRawCounterDelta) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 48, 23);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    std::vector<Key> keys = SomeKeys(23, 80);
    Rng org(Mix64(23 ^ 0x0b51));
    for (Key k : keys) {
      net::PeerId from = b.members[org.NextBelow(b.members.size())];
      auto before = b.ov->network()->Snapshot();
      OpStats st = b.ov->ExactSearch(from, k);
      uint64_t raw =
          net::Network::Delta(before, b.ov->network()->Snapshot());
      EXPECT_TRUE(st.ok());
      EXPECT_EQ(st.messages, raw);
    }
    EXPECT_GT(mgr.stats().hits + mgr.stats().misses, 0u);
    b.ov->AttachCache(nullptr);
  }
}

// Stale routes are repaired: learned owners that leave (or fail, where
// supported) never produce wrong answers, only evictions and relearns.
TEST(CacheOverlay, StaleRoutesRepairedAfterLeaveAndFail) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 64, 29);
    cache::Manager mgr;
    b.ov->AttachCache(&mgr);
    std::vector<Key> keys = SomeKeys(29, 40);
    Answers(&b, keys, 29);  // learn routes
    // Churn: leave a handful of members (the leave hooks invalidate), with
    // the occasional fail/recover where the backend supports it.
    Rng rng(Mix64(29 ^ 0xc4a7));
    for (int i = 0; i < 8; ++i) {
      size_t idx = rng.NextBelow(b.members.size());
      ASSERT_TRUE(b.ov->Leave(b.members[idx]).ok());
      // A departure request can be fulfilled by a replacement (BATON moves
      // a leaf into an internal slot), so the peer that actually left may
      // not be the one we picked: re-read ground truth instead of erasing.
      b.members = b.ov->Members();
      ASSERT_FALSE(b.members.empty());
    }
    if (b.ov->Supports(Capability::kFailRecovery)) {
      size_t idx = rng.NextBelow(b.members.size());
      ASSERT_TRUE(b.ov->Fail(b.members[idx]).ok());
      ASSERT_TRUE(b.ov->RecoverAllFailures().ok());
      b.members = b.ov->Members();
    }
    // Replay against a never-cached twin at the same membership state: the
    // possibly-stale cache must still produce identical answers.
    auto cached = Answers(&b, keys, 31);
    b.ov->AttachCache(nullptr);
    auto plain = Answers(&b, keys, 31);
    EXPECT_EQ(cached, plain);
    EXPECT_GT(mgr.stats().invalidations + mgr.stats().stale, 0u)
        << "churn should have invalidated or refuted something";
    b.ov->CheckInvariants();
  }
}

/// A route the warm cache holds: `origin` remembers `owner` (not itself) as
/// the owner of `key`'s routing coordinate.
struct WarmRoute {
  net::PeerId origin = net::kNullPeer;
  Key key = 0;
  net::PeerId owner = net::kNullPeer;
};

WarmRoute FindWarmRoute(const Built& b, cache::Manager* mgr,
                        const std::vector<Key>& keys) {
  for (net::PeerId o : b.members) {
    for (Key k : keys) {
      cache::RouteEntry e;
      if (mgr->Lookup(o, b.ov->RouteCoordOf(k), &e) >= 0 && e.owner != o) {
        return {o, k, e.owner};
      }
    }
  }
  return {};
}

// Join, leave and fail drop the routes they outdate before they return: a
// warm route to a departed owner is gone before the next lookup (not
// refuted by a wasted probe), and no route survives inside a joiner's new
// interval.
TEST(CacheOverlay, MembershipOpsDropTheRoutesTheyOutdate) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    std::vector<Key> keys = SomeKeys(43, 60);
    {
      cache::Manager mgr;
      auto b = Grow(name, 64, 43);
      b.ov->AttachCache(&mgr);
      const bool can_fail = b.ov->Supports(Capability::kFailRecovery);
      Rng rng(Mix64(43 ^ 0xc4a7));
      for (uint64_t round = 0; round < 6; ++round) {
        Answers(&b, keys, 43 + round);  // (re)warm
        OpStats j = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
        ASSERT_TRUE(j.ok()) << j.status.ToString();
        b.members = b.ov->Members();
        uint64_t lo = 0;
        uint64_t hi = 0;
        if (b.ov->RouteHint(j.peer, &lo, &hi)) {
          for (net::PeerId o : b.members) {
            cache::RouteEntry e;
            EXPECT_EQ(mgr.Lookup(o, lo, &e), -1) << "origin " << o;
          }
        }
        Answers(&b, keys, 53 + round);
        OpStats l = b.ov->Leave(b.members[rng.NextBelow(b.members.size())]);
        ASSERT_TRUE(l.ok()) << l.status.ToString();
        b.members = b.ov->Members();
        if (!can_fail) continue;
        Answers(&b, keys, 63 + round);
        OpStats f = b.ov->Fail(b.members[rng.NextBelow(b.members.size())]);
        ASSERT_TRUE(f.ok()) << f.status.ToString();
        ASSERT_TRUE(b.ov->RecoverAllFailures().ok());
        b.members = b.ov->Members();
      }
      EXPECT_GT(mgr.stats().invalidations, 0u);
      b.ov->AttachCache(nullptr);
    }
    // Leave, and where supported fail + recover, of a warm route's owner.
    for (bool fail : {false, true}) {
      SCOPED_TRACE(fail ? "fail" : "leave");
      cache::Manager mgr;
      auto b = Grow(name, 64, 47);
      if (fail && !b.ov->Supports(Capability::kFailRecovery)) continue;
      b.ov->AttachCache(&mgr);
      Answers(&b, keys, 47);
      const WarmRoute r = FindWarmRoute(b, &mgr, keys);
      ASSERT_NE(r.origin, net::kNullPeer) << "warm pass learned no route";
      if (fail) {
        ASSERT_TRUE(b.ov->Fail(r.owner).ok());
        ASSERT_TRUE(b.ov->RecoverAllFailures().ok());
      } else {
        ASSERT_TRUE(b.ov->Leave(r.owner).ok());
      }
      OpStats cached = b.ov->ExactSearch(r.origin, r.key);
      b.ov->AttachCache(nullptr);
      OpStats plain = b.ov->ExactSearch(r.origin, r.key);
      ASSERT_TRUE(cached.ok()) << cached.status.ToString();
      ASSERT_TRUE(plain.ok()) << plain.status.ToString();
      EXPECT_EQ(cached.cache_stale, 0);
      EXPECT_EQ(cached.peer, plain.peer);
      EXPECT_EQ(cached.found, plain.found);
    }
  }
}

// Same seed, same build, same trace => byte-identical hit sequence.
TEST(CacheOverlay, DeterministicHitSequence) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    std::vector<Key> keys = SomeKeys(37, 60);
    auto run = [&]() {
      auto b = Grow(name, 48, 37);
      cache::Manager mgr;
      b.ov->AttachCache(&mgr);
      std::vector<int> hits;
      Rng org(Mix64(37 ^ 0x0b51));
      for (Key k : keys) {
        net::PeerId from = b.members[org.NextBelow(b.members.size())];
        OpStats st = b.ov->ExactSearch(from, k);
        hits.push_back(st.cache_hits);
      }
      return hits;
    };
    EXPECT_EQ(run(), run());
  }
}

// Attach-then-detach must behave exactly like never-attached: one null
// check, identical hops and message bills.
TEST(CacheOverlay, DetachedIsByteIdentical) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    std::vector<Key> keys = SomeKeys(41, 50);
    auto trace = [&](bool attach_first) {
      auto b = Grow(name, 48, 41);
      if (attach_first) {
        cache::Manager mgr;
        b.ov->AttachCache(&mgr);
        Answers(&b, keys, 41);  // populate, then detach
        b.ov->AttachCache(nullptr);
      }
      std::vector<std::pair<int, uint64_t>> out;
      Rng org(Mix64(41 ^ 0x0b51));
      for (Key k : keys) {
        net::PeerId from = b.members[org.NextBelow(b.members.size())];
        OpStats st = b.ov->ExactSearch(from, k);
        out.emplace_back(st.hops, st.messages);
        EXPECT_EQ(st.cache_hits, 0);
      }
      return out;
    };
    EXPECT_EQ(trace(false), trace(true));
  }
}

}  // namespace
}  // namespace baton
