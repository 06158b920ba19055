// Tests for latency-weighted OpStats: a sim/ latency model and clock
// attached to an overlay's network via Overlay::AttachLatency, the
// critical-path contract (sequential hops add, parallel fan-out takes the
// max), determinism, the zero-latency regression guarding bench
// byte-identity, and the replay aggregates built on top.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "overlay/registry.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using overlay::Config;
using overlay::Make;
using overlay::OpStats;
using overlay::Overlay;

constexpr Key kDomainHi = 1000000000;

// Grows an overlay to n members and inserts keys_per_node keys per member,
// mirroring the bench builder (bench_common is not linked into tests).
struct Built {
  std::unique_ptr<Overlay> ov;
  std::vector<net::PeerId> members;
};

Built Grow(const std::string& name, size_t n, uint64_t seed,
           size_t keys_per_node = 0) {
  Config cfg;
  cfg.seed = seed;
  Built b;
  b.ov = Make(name, cfg);
  BATON_CHECK(b.ov != nullptr) << "unknown backend " << name;
  Rng rng(Mix64(seed));
  workload::UniformKeys keys(1, kDomainHi);
  b.members.push_back(b.ov->Bootstrap());
  while (b.members.size() < n) {
    for (size_t i = 0; i < keys_per_node; ++i) {
      auto st = b.ov->Insert(b.members[rng.NextBelow(b.members.size())],
                             keys.Next(&rng));
      BATON_CHECK(st.ok()) << st.status.ToString();
    }
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.members.push_back(st.peer);
  }
  return b;
}

TEST(OverlayLatency, ZeroWithoutModelAttached) {
  // Regression guarding bench byte-identity: with no latency model
  // configured every operation must report latency_ticks == 0 (and behave
  // exactly as before the sim wiring existed).
  Built b = Grow("baton", 32, 1, 5);
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    OpStats st = b.ov->ExactSearch(
        b.members[rng.NextBelow(b.members.size())], rng.UniformInt(1, kDomainHi));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.latency_ticks, 0u);
  }
  OpStats rs = b.ov->RangeSearch(b.members[0], 1, kDomainHi);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.latency_ticks, 0u);
}

TEST(OverlayLatency, ZeroTickModelReportsZeroLatency) {
  // A model that samples 0 ticks must behave like free links: delivery
  // events still flow, but the critical path is 0.
  Built b = Grow("baton", 32, 2, 5);
  sim::Clock clock;
  sim::ConstantLatency lat(0);
  b.ov->AttachLatency(&clock, &lat, 1);
  OpStats st = b.ov->ExactSearch(b.members[5], 123456789);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.latency_ticks, 0u);
  EXPECT_GT(b.ov->network()->sim_delivered(), 0u);
}

TEST(OverlayLatency, ConstOneExactSearchLatencyEqualsHops) {
  // Exact-match routing is purely sequential: with one tick per link the
  // critical path of each search equals its hop count.
  Built b = Grow("baton", 100, 3, 5);
  sim::Clock clock;
  sim::ConstantLatency lat(1);
  b.ov->AttachLatency(&clock, &lat, 1);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    OpStats st = b.ov->ExactSearch(
        b.members[rng.NextBelow(b.members.size())],
        rng.UniformInt(1, kDomainHi));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st.latency_ticks, static_cast<uint64_t>(st.hops));
  }
}

TEST(OverlayLatency, RangeQueryFanOutBeatsSequentialHops) {
  // The critical-path contract: BATON disseminates a wide range scan as a
  // delegation tree (one message per covered node, forwarded in parallel
  // branches), so with one tick per link the simulated latency must be
  // strictly below the sequential sum of hops -- the distinction message
  // counts alone cannot make.
  Built b = Grow("baton", 128, 4, 5);
  sim::Clock clock;
  sim::ConstantLatency lat(1);
  b.ov->AttachLatency(&clock, &lat, 1);
  Rng rng(17);
  uint64_t total_lat = 0, total_hops = 0;
  for (int i = 0; i < 10; ++i) {
    Key lo = rng.UniformInt(1, kDomainHi / 4);
    OpStats st = b.ov->RangeSearch(
        b.members[rng.NextBelow(b.members.size())], lo, lo + kDomainHi / 2);
    ASSERT_TRUE(st.ok());
    ASSERT_GT(st.nodes, 8u) << "range too narrow to exercise fan-out";
    EXPECT_GT(st.latency_ticks, 0u);
    EXPECT_LE(st.latency_ticks, static_cast<uint64_t>(st.hops));
    total_lat += st.latency_ticks;
    total_hops += static_cast<uint64_t>(st.hops);
  }
  EXPECT_LT(total_lat, total_hops)
      << "wide range scans must show parallelism under the frontier clock";
}

TEST(OverlayLatency, DeterministicAcrossRuns) {
  // Same seed, same latency model, same query stream => identical
  // latency_ticks, run after run.
  auto run = [](uint64_t sim_seed) {
    Built b = Grow("baton", 64, 5, 5);
    sim::Clock clock;
    sim::UniformLatency lat(1, 9);
    b.ov->AttachLatency(&clock, &lat, sim_seed);
    Rng rng(19);
    std::vector<uint64_t> ticks;
    for (int i = 0; i < 30; ++i) {
      OpStats st = b.ov->ExactSearch(
          b.members[rng.NextBelow(b.members.size())],
          rng.UniformInt(1, kDomainHi));
      BATON_CHECK(st.ok());
      ticks.push_back(st.latency_ticks);
    }
    return ticks;
  };
  EXPECT_EQ(run(23), run(23));
  EXPECT_NE(run(23), run(24));
}

TEST(OverlayLatency, EveryBackendReportsLatencyThroughTheSameWrapper) {
  // The timing is derived from the Count() stream in the base-class
  // wrapper, so backends need no code of their own to be timed.
  for (const std::string& name : overlay::RegisteredNames()) {
    Built b = Grow(name, 48, 6);
    sim::Clock clock;
    sim::ConstantLatency lat(1);
    b.ov->AttachLatency(&clock, &lat, 1);
    Rng rng(29);
    for (int i = 0; i < 20; ++i) {
      OpStats st = b.ov->ExactSearch(
          b.members[rng.NextBelow(b.members.size())],
          rng.UniformInt(1, kDomainHi));
      ASSERT_TRUE(st.ok()) << name;
      if (st.messages > 0) {
        EXPECT_GT(st.latency_ticks, 0u) << name;
      }
      // The critical path can never exceed the number of messages (each
      // message adds at most one tick at const:1).
      EXPECT_LE(st.latency_ticks, st.messages) << name;
    }
  }
}

// ---------- workload::Replay latency aggregation ----------

TEST(ReplayLatency, AggregatesMatchPerOpTotals) {
  Built b = Grow("baton", 64, 7, 5);
  sim::Clock clock;
  sim::ConstantLatency lat(1);
  b.ov->AttachLatency(&clock, &lat, 1);

  workload::Trace trace;
  Rng keygen(31);
  for (int i = 0; i < 50; ++i) {
    trace.push_back({workload::OpType::kExact,
                     keygen.UniformInt(1, kDomainHi), 0});
  }
  Rng rng(37);
  workload::ReplayResult res = workload::Replay(*b.ov, trace, &rng, &b.members);
  const workload::OpAggregate& agg = res.of(workload::OpType::kExact);
  EXPECT_EQ(agg.count, 50u);
  // const:1 and purely sequential routing: aggregate latency == aggregate
  // hops.
  EXPECT_EQ(agg.latency_hist.sum(), agg.hops_hist.sum());
  EXPECT_DOUBLE_EQ(agg.MeanLatency(), agg.MeanHops());
  EXPECT_GT(agg.MeanLatency(), 0.0);
}

// Minimal backend stub whose searches report a negative hop sentinel, as a
// failing backend might; only the pieces Replay touches are implemented.
class NegativeHopsOverlay : public Overlay {
 public:
  NegativeHopsOverlay() { network()->Register(); }

  const std::string& name() const override {
    static const std::string kName = "negative-hops-stub";
    return kName;
  }
  uint32_t capabilities() const override { return 0; }
  size_t size() const override { return 1; }
  std::vector<net::PeerId> Members() const override { return {0}; }
  uint64_t total_keys() const override { return 0; }
  void CheckInvariants() const override {}
  uint64_t build_salt() const override { return 0; }

 protected:
  net::PeerId DoBootstrap() override { return 0; }
  void DoJoin(net::PeerId, OpStats*) override {}
  void DoLeave(net::PeerId, OpStats*) override {}
  void DoInsert(net::PeerId, Key, OpStats*) override {}
  void DoDelete(net::PeerId, Key, OpStats*) override {}
  void DoExactSearch(net::PeerId, Key, OpStats* st) override {
    st->hops = -1;  // "no route" sentinel
  }
};

TEST(ReplayLatency, NegativeHopSentinelsAreClampedNotWrapped) {
  // Regression: Accumulate used to cast the signed hops field straight to
  // uint64_t, so one -1 turned the aggregate into ~2^64.
  NegativeHopsOverlay ov;
  std::vector<net::PeerId> members = {0};
  workload::Trace trace(5, {workload::OpType::kExact, 42, 0});
  Rng rng(41);
  workload::ReplayResult res = workload::Replay(ov, trace, &rng, &members);
  const workload::OpAggregate& agg = res.of(workload::OpType::kExact);
  EXPECT_EQ(agg.count, 5u);
  EXPECT_EQ(agg.hops_hist.sum(), 0u);
  EXPECT_EQ(agg.MeanHops(), 0.0);
}

}  // namespace
}  // namespace baton
