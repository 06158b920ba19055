// Tests for the generic overlay layer: the registry/factory, capability
// flags, the OpStats accounting contract (OpStats::messages == the raw
// net::Network counter delta for every operation, on every backend), and
// the cross-backend differential property: two order-preserving backends
// replaying the same trace return identical query answer sets. Also pins
// workload::Replay's guard that keeps kMinMembers members alive.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fixtures.h"
#include "overlay/baton_overlay.h"
#include "overlay/chord_overlay.h"
#include "overlay/multiway_overlay.h"
#include "overlay/registry.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using overlay::Capability;
using overlay::Config;
using overlay::Make;
using overlay::OpStats;
using overlay::Overlay;

using fixtures::Built;
using fixtures::Grow;

TEST(OverlayRegistry, BuiltinsRegistered) {
  auto names = overlay::RegisteredNames();
  // Multi-backend tables print their rows in this order.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_TRUE(std::count(names.begin(), names.end(), "baton") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "chord") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "d3tree") == 1);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "multiway") == 1);
  for (const auto& name : names) {
    EXPECT_TRUE(overlay::IsRegistered(name));
    auto ov = Make(name);
    ASSERT_NE(ov, nullptr);
    EXPECT_EQ(ov->name(), name);
    EXPECT_EQ(ov->size(), 0u);
  }
  EXPECT_FALSE(overlay::IsRegistered("no-such-backend"));
  EXPECT_EQ(Make("no-such-backend"), nullptr);
}

TEST(OverlayRegistry, ConfigReachesBackend) {
  Config cfg;
  cfg.baton.domain_lo = 100;
  cfg.baton.domain_hi = 200;
  cfg.multiway.max_fanout = 7;
  auto ov = Make("baton", cfg);
  EXPECT_EQ(overlay::BatonBackend(*ov).config().domain_lo, 100);
  auto mw = Make("multiway", cfg);
  EXPECT_EQ(overlay::MultiwayBackend(*mw).size(), 0u);
}

TEST(OverlayCapabilities, MatchBackendFeatureSets) {
  auto b = Make("baton");
  EXPECT_TRUE(b->Supports(Capability::kRangeSearch));
  EXPECT_TRUE(b->Supports(Capability::kFailRecovery));
  EXPECT_TRUE(b->Supports(Capability::kLoadBalance));
  EXPECT_TRUE(b->Supports(Capability::kOrderedGrowth));
  EXPECT_FALSE(b->Supports(Capability::kReplication));  // r = 0 by default

  Config replicated;
  replicated.baton.replication.factor = 2;
  EXPECT_TRUE(Make("baton", replicated)->Supports(Capability::kReplication));

  auto c = Make("chord");
  EXPECT_FALSE(c->Supports(Capability::kRangeSearch));
  EXPECT_FALSE(c->Supports(Capability::kFailRecovery));
  EXPECT_FALSE(c->Supports(Capability::kOrderedGrowth));

  auto m = Make("multiway");
  EXPECT_TRUE(m->Supports(Capability::kRangeSearch));
  EXPECT_FALSE(m->Supports(Capability::kFailRecovery));
  EXPECT_TRUE(m->Supports(Capability::kOrderedGrowth));

  auto d = Make("d3tree");
  EXPECT_TRUE(d->Supports(Capability::kRangeSearch));
  EXPECT_TRUE(d->Supports(Capability::kFailRecovery));
  EXPECT_TRUE(d->Supports(Capability::kLoadBalance));
  EXPECT_TRUE(d->Supports(Capability::kOrderedGrowth));
  EXPECT_FALSE(d->Supports(Capability::kReplication));

  EXPECT_EQ(overlay::CapabilitiesToString(0), "-");
  EXPECT_EQ(overlay::CapabilitiesToString(Capability::kRangeSearch |
                                          Capability::kFailRecovery),
            "range,fail");
}

TEST(OverlayCapabilities, UnsupportedOpsFailCleanly) {
  auto c = Grow("chord", 16, 7);
  OpStats st = c.ov->RangeSearch(c.members[0], 10, 1000);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.messages, 0u);

  auto m = Grow("multiway", 16, 7);
  EXPECT_FALSE(m.ov->Fail(m.members[1]).ok());
  EXPECT_FALSE(m.ov->RecoverAllFailures().ok());
}

// The OpStats contract: `messages` equals the raw counter delta the caller
// would have measured by snapshotting the network around the operation --
// for every operation, on every backend.
TEST(OverlayOpStats, MessagesMatchRawCounterDelta) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 32, 11);
    Rng rng(42);
    workload::UniformKeys keys(1, 1000000000);
    auto origin = [&]() {
      return b.members[rng.NextBelow(b.members.size())];
    };
    auto check = [&](auto&& op) {
      auto before = b.ov->network()->Snapshot();
      OpStats st = op();
      uint64_t raw =
          net::Network::Delta(before, b.ov->network()->Snapshot());
      EXPECT_EQ(st.messages, raw);
      return st;
    };

    std::vector<Key> inserted;
    for (int i = 0; i < 50; ++i) {
      Key k = keys.Next(&rng);
      inserted.push_back(k);
      EXPECT_TRUE(check([&] { return b.ov->Insert(origin(), k); }).ok());
    }
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          check([&] { return b.ov->ExactSearch(origin(), keys.Next(&rng)); })
              .ok());
      if (b.ov->Supports(Capability::kRangeSearch)) {
        Key lo = keys.Next(&rng);
        EXPECT_TRUE(
            check([&] { return b.ov->RangeSearch(origin(), lo, lo + 1000000); })
                .ok());
      }
    }
    for (int i = 0; i < 10; ++i) {
      OpStats joined = check([&] { return b.ov->Join(origin()); });
      ASSERT_TRUE(joined.ok());
      b.members.push_back(joined.peer);

      size_t idx = rng.NextBelow(b.members.size());
      OpStats left = check([&] { return b.ov->Leave(b.members[idx]); });
      ASSERT_TRUE(left.ok());
      b.members.erase(b.members.begin() + static_cast<long>(idx));
    }
    for (Key k : inserted) {
      EXPECT_TRUE(check([&] { return b.ov->Delete(origin(), k); }).ok());
    }
    b.ov->CheckInvariants();
  }
}

TEST(OverlayOpStats, SearchReportsFoundAndDestination) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 24, 3);
    ASSERT_TRUE(b.ov->Insert(b.members[0], 123456789).ok());
    OpStats hit = b.ov->ExactSearch(b.members[5], 123456789);
    EXPECT_TRUE(hit.ok());
    EXPECT_TRUE(hit.found);
    EXPECT_NE(hit.peer, net::kNullPeer);
    OpStats miss = b.ov->ExactSearch(b.members[5], 987654321);
    EXPECT_TRUE(miss.ok());
    EXPECT_FALSE(miss.found);
  }
}

TEST(OverlayFailRecovery, BatonRecoversThroughGenericInterface) {
  auto b = Grow("baton", 24, 19);
  Rng rng(5);
  workload::UniformKeys keys(1, 1000000000);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        b.ov->Insert(b.members[rng.NextBelow(b.members.size())], keys.Next(&rng))
            .ok());
  }
  net::PeerId victim = b.members[7];
  EXPECT_TRUE(b.ov->Fail(victim).ok());
  OpStats rec = b.ov->RecoverAllFailures();
  EXPECT_TRUE(rec.ok());
  EXPECT_GT(rec.messages, 0u);
  b.members.erase(b.members.begin() + 7);
  b.ov->CheckInvariants();
  EXPECT_EQ(b.ov->size(), 23u);
}

// The differential property the unified API exists for: two
// order-preserving backends driven through the same trace (same seed, same
// rng stream) must agree on every query answer -- found/not-found per exact
// query and match count per range query. (Chord is excluded: its Lookup
// checks a *hashed* id, so answer sets are only comparable between
// order-preserving backends.)
TEST(OverlayDifferential, BatonAndMultiwayAgreeOnAllAnswers) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 77;

  // Same trace for both: inserts, deletes, queries, ranges, churn.
  auto make_trace = [&](Rng* rng, workload::KeyGenerator* gen) {
    workload::ChurnMix mix;
    mix.joins = 10;
    mix.leaves = 10;
    mix.inserts = 300;
    mix.exacts = 200;
    mix.ranges = 40;
    mix.range_width = 50000000;
    return workload::MakeChurnTrace(rng, gen, mix);
  };

  workload::ReplayOptions opts;
  opts.record_answers = true;

  std::vector<workload::ReplayResult> results;
  std::vector<uint64_t> key_totals;
  for (const std::string name : {"baton", "multiway"}) {
    SCOPED_TRACE(name);
    auto b = Grow(name, kN, kSeed);
    // Seed the same data so the key sets match before the trace starts.
    Rng load_rng(123);
    workload::UniformKeys load_keys(1, 1000000000);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(b.ov->Insert(b.members[load_rng.NextBelow(b.members.size())],
                               load_keys.Next(&load_rng))
                      .ok());
    }
    Rng trace_rng(999);
    workload::UniformKeys gen(1, 1000000000);
    auto trace = make_trace(&trace_rng, &gen);
    Rng replay_rng(31337);
    results.push_back(
        workload::Replay(*b.ov, trace, &replay_rng, &b.members, opts));
    b.ov->CheckInvariants();
    key_totals.push_back(b.ov->total_keys());
  }

  const auto& baton_res = results[0];
  const auto& multiway_res = results[1];
  // Both executed every query (no skips), and answer sets are identical.
  ASSERT_EQ(baton_res.exact_found.size(), 200u);
  ASSERT_EQ(multiway_res.exact_found.size(), 200u);
  EXPECT_EQ(baton_res.exact_found, multiway_res.exact_found);
  ASSERT_EQ(baton_res.range_matches.size(), 40u);
  EXPECT_EQ(baton_res.range_matches, multiway_res.range_matches);
  // The data sets themselves stayed identical through the churn.
  EXPECT_EQ(key_totals[0], key_totals[1]);
  // Sanity: the trace exercised both hit and miss paths.
  EXPECT_GT(baton_res.of(workload::OpType::kExact).count, 0u);
  EXPECT_GT(std::count(baton_res.exact_found.begin(),
                       baton_res.exact_found.end(), false),
            0);
}

// Replay's aggregates are consistent with the raw network counters: the sum
// of all per-op message aggregates equals the total counter delta across
// the replay (nothing measured twice, nothing missed).
TEST(OverlayDifferential, ReplayAggregatesMatchNetworkTotals) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    auto b = Grow(name, 32, 13);
    Rng trace_rng(7);
    workload::UniformKeys gen(1, 1000000000);
    workload::ChurnMix mix;
    mix.joins = 8;
    mix.leaves = 8;
    mix.failures = 4;
    mix.inserts = 100;
    mix.exacts = 50;
    mix.ranges = 10;
    mix.range_width = 10000000;
    auto trace = workload::MakeChurnTrace(&trace_rng, &gen, mix);

    Rng replay_rng(55);
    auto before = b.ov->network()->Snapshot();
    auto res = workload::Replay(*b.ov, trace, &replay_rng, &b.members);
    uint64_t raw = net::Network::Delta(before, b.ov->network()->Snapshot());
    EXPECT_EQ(res.total_messages, raw);

    uint64_t per_op_sum = 0;
    for (const auto& agg : res.per_op) per_op_sum += agg.messages_hist.sum();
    EXPECT_EQ(per_op_sum, raw);
    b.ov->CheckInvariants();
  }
}

TEST(Replay, MembershipOpsStopAtMinMembers) {
  auto b = Grow("baton", 6, 19);
  // Six members, four leaves then two failures: only the first two leaves
  // run before the overlay is down to kMinMembers.
  workload::Trace trace(4, {workload::OpType::kLeave, 0, 0});
  trace.resize(6, {workload::OpType::kFail, 0, 0});

  Rng replay_rng(23);
  auto res = workload::Replay(*b.ov, trace, &replay_rng, &b.members);
  const workload::OpAggregate& leaves = res.of(workload::OpType::kLeave);
  const workload::OpAggregate& fails = res.of(workload::OpType::kFail);
  EXPECT_EQ(leaves.count, 2u);
  EXPECT_EQ(leaves.ok, 2u);
  EXPECT_EQ(leaves.skipped, 2u);
  EXPECT_EQ(fails.count, 0u);
  EXPECT_EQ(fails.skipped, 2u);
  EXPECT_EQ(b.members.size(), workload::kMinMembers);
  EXPECT_EQ(b.ov->size(), workload::kMinMembers);
  b.ov->CheckInvariants();
}

}  // namespace
}  // namespace baton
