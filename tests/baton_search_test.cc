// Index operations (section IV): exact-match and range queries, insert and
// delete, hop bounds, domain expansion at the edges, duplicate keys, and an
// exhaustive all-origins sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baton/baton.h"
#include "fixtures.h"
#include "obs/observer.h"

namespace baton {
namespace {

using fixtures::Overlay;

TEST(Search, SingleNodeAnswersEverything) {
  Overlay o(1);
  ASSERT_TRUE(o.overlay->Insert(o.members[0], 77).ok());
  auto r = o.overlay->ExactSearch(o.members[0], 77);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().found);
  EXPECT_EQ(r.value().hops, 0);
  auto miss = o.overlay->ExactSearch(o.members[0], 78);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().found);
}

TEST(Search, ExhaustiveAllOriginsAllOwners) {
  // Every node searches for a key owned by every other node: the search must
  // land on the right owner with a bounded hop count.
  Overlay o(2);
  Rng rng(2);
  o.Grow(64, &rng);
  int height = o.overlay->Height();
  for (PeerId from : o.members) {
    for (PeerId target : o.members) {
      Key probe = o.overlay->node(target).range.lo;
      auto r = o.overlay->ExactSearch(from, probe);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().node, target)
          << "searching " << probe << " from " << o.overlay->node(from).pos;
      EXPECT_LE(r.value().hops, 3 * (height + 1));
    }
  }
}

TEST(Search, FindsEveryInsertedKey) {
  Overlay o(3);
  Rng rng(3);
  o.Grow(100, &rng);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    Key k = rng.UniformInt(1, 999999999);
    keys.push_back(k);
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  for (Key k : keys) {
    auto r = o.overlay->ExactSearch(o.members[rng.NextBelow(o.members.size())], k);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().found) << k;
  }
}

TEST(Search, HopCountLogarithmic) {
  Overlay o(4);
  Rng rng(4);
  o.Grow(1024, &rng);
  double total = 0;
  const int kQ = 500;
  for (int i = 0; i < kQ; ++i) {
    auto r = o.overlay->ExactSearch(o.members[rng.NextBelow(o.members.size())],
                                    rng.UniformInt(1, 999999999));
    ASSERT_TRUE(r.ok());
    total += r.value().hops;
  }
  EXPECT_LE(total / kQ, 1.44 * std::log2(1024.0) + 2)
      << "average search must stay within the height bound";
}

TEST(Search, DuplicateKeysAllCounted) {
  Overlay o(5);
  Rng rng(5);
  o.Grow(16, &rng);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(o.overlay->Insert(o.members[0], 123456789).ok());
  }
  auto rr = o.overlay->RangeSearch(o.members[3], 123456789, 123456790);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr.value().matches, 5u);
}

TEST(RangeSearch, MatchesBruteForce) {
  Overlay o(6);
  Rng rng(6);
  o.Grow(80, &rng);
  std::vector<Key> keys;
  for (int i = 0; i < 2000; ++i) {
    Key k = rng.UniformInt(1, 999999999);
    keys.push_back(k);
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  for (int q = 0; q < 50; ++q) {
    Key lo = rng.UniformInt(1, 900000000);
    Key hi = lo + rng.UniformInt(1, 90000000);
    auto rr = o.overlay->RangeSearch(
        o.members[rng.NextBelow(o.members.size())], lo, hi);
    ASSERT_TRUE(rr.ok());
    uint64_t expect = 0;
    for (Key k : keys) {
      if (k >= lo && k < hi) ++expect;
    }
    EXPECT_EQ(rr.value().matches, expect) << "[" << lo << "," << hi << ")";
  }
}

TEST(RangeSearch, VisitedNodesAreContiguous) {
  Overlay o(7);
  Rng rng(7);
  o.Grow(64, &rng);
  auto rr = o.overlay->RangeSearch(o.members[0], 100000000, 600000000);
  ASSERT_TRUE(rr.ok());
  ASSERT_GT(rr.value().nodes.size(), 1u);
  for (size_t i = 0; i + 1 < rr.value().nodes.size(); ++i) {
    const BatonNode& a = o.overlay->node(rr.value().nodes[i]);
    const BatonNode& b = o.overlay->node(rr.value().nodes[i + 1]);
    EXPECT_EQ(a.range.hi, b.range.lo) << "scan must follow adjacent ranges";
  }
}

TEST(RangeSearch, CostIsLogNPlusCoveredNodes) {
  Overlay o(8);
  Rng rng(8);
  o.Grow(512, &rng);
  double logn = std::log2(512.0);
  for (int q = 0; q < 30; ++q) {
    Key lo = rng.UniformInt(1, 500000000);
    Key hi = lo + 300000000;
    auto before = o.net.Snapshot();
    auto rr = o.overlay->RangeSearch(
        o.members[rng.NextBelow(o.members.size())], lo, hi);
    ASSERT_TRUE(rr.ok());
    uint64_t msgs = net::Network::Delta(before, o.net.Snapshot());
    EXPECT_LE(msgs, static_cast<uint64_t>(3 * logn) + rr.value().nodes.size())
        << "O(log N + X) bound";
  }
}

TEST(RangeSearch, EmptyRangeRejected) {
  Overlay o(9);
  auto rr = o.overlay->RangeSearch(o.members[0], 10, 10);
  EXPECT_FALSE(rr.ok());
}

TEST(RangeSearch, WholeDomainCoversAllNodes) {
  Overlay o(10);
  Rng rng(10);
  o.Grow(32, &rng);
  auto rr = o.overlay->RangeSearch(o.members[5],
                                   o.overlay->config().domain_lo,
                                   o.overlay->config().domain_hi);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr.value().nodes.size(), 32u);
}

TEST(InsertDelete, RoundTrip) {
  Overlay o(11);
  Rng rng(11);
  o.Grow(40, &rng);
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i) {
    Key k = rng.UniformInt(1, 999999999);
    keys.push_back(k);
    ASSERT_TRUE(
        o.overlay->Insert(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  EXPECT_EQ(o.overlay->total_keys(), 500u);
  for (Key k : keys) {
    ASSERT_TRUE(
        o.overlay->Delete(o.members[rng.NextBelow(o.members.size())], k).ok());
  }
  EXPECT_EQ(o.overlay->total_keys(), 0u);
  o.overlay->CheckInvariants();
}

TEST(InsertDelete, DeleteMissingKeyIsNotFound) {
  Overlay o(12);
  Rng rng(12);
  o.Grow(8, &rng);
  Status s = o.overlay->Delete(o.members[0], 42);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(InsertDelete, LeftEdgeExpansion) {
  // Inserting below the domain expands the leftmost node's range and
  // triggers the "additional log N" range-update broadcast (section IV-C).
  BatonConfig cfg;
  cfg.domain_lo = 1000;
  cfg.domain_hi = 2000;
  Overlay o(13, cfg);
  Rng rng(13);
  o.Grow(16, &rng);
  auto before = o.net.Snapshot();
  ASSERT_TRUE(o.overlay->Insert(o.members[5], 50).ok());
  EXPECT_GT(net::Network::DeltaOfType(before, o.net.Snapshot(),
                                      net::MsgType::kRangeUpdate),
            0u);
  auto r = o.overlay->ExactSearch(o.members[3], 50);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().found);
  o.overlay->CheckInvariants();
}

TEST(InsertDelete, RightEdgeExpansion) {
  BatonConfig cfg;
  cfg.domain_lo = 1000;
  cfg.domain_hi = 2000;
  Overlay o(14, cfg);
  Rng rng(14);
  o.Grow(16, &rng);
  ASSERT_TRUE(o.overlay->Insert(o.members[2], 5000).ok());
  auto r = o.overlay->ExactSearch(o.members[7], 5000);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().found);
  o.overlay->CheckInvariants();
}

TEST(Search, NeverRoutesThroughRootUnlessDelivering) {
  // The paper: the root processes queries only when it owns the value (or is
  // on a short delivery path) -- it must not be a relay hot spot. Load
  // balancing (section IV-D) is what keeps ranges data-proportional, so it
  // is enabled here as in the paper's experiments.
  BatonConfig cfg;
  cfg.enable_load_balance = true;
  cfg.overload_factor = 2.0;
  Overlay o(15, cfg);
  Rng rng(15);
  o.Grow(256, &rng);
  for (int i = 0; i < 2560; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  // Every message in the search-only window is an exact query, so the
  // observer's per-node deliveries are the query load.
  obs::Observer observer;
  o.net.AttachObserver(&observer);
  const int kQ = 2560;
  for (int i = 0; i < kQ; ++i) {
    auto r = o.overlay->ExactSearch(o.members[rng.NextBelow(o.members.size())],
                                    rng.UniformInt(1, 999999999));
    ASSERT_TRUE(r.ok());
  }
  o.net.AttachObserver(nullptr);
  ASSERT_EQ(observer.messages(net::MsgCategory::kQuery), observer.messages());
  const std::vector<uint64_t>& msgs_in = observer.msgs_in();
  auto load = [&](PeerId p) { return p < msgs_in.size() ? msgs_in[p] : 0; };
  uint64_t total = 0;
  for (PeerId p : o.members) total += load(p);
  double avg = static_cast<double>(total) / static_cast<double>(o.members.size());
  uint64_t root_load = load(o.overlay->root());
  EXPECT_LE(static_cast<double>(root_load), 8 * avg + 16)
      << "root must not be a relay hot spot";
}

// Parameterized sweep: correctness across sizes.
class SearchSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SearchSweep, BoundaryKeysRouteToOwners) {
  Overlay o(GetParam());
  Rng rng(GetParam() * 31 + 1);
  o.Grow(GetParam(), &rng);
  for (PeerId m : o.overlay->Members()) {
    const BatonNode& n = o.overlay->node(m);
    // First and last key of every node's range route back to it.
    for (Key probe : {n.range.lo, n.range.hi - 1}) {
      auto r = o.overlay->ExactSearch(
          o.members[rng.NextBelow(o.members.size())], probe);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().node, m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SearchSweep,
                         ::testing::Values(2, 3, 5, 9, 17, 33, 65, 129));

}  // namespace
}  // namespace baton
