// Tests for the obs/ observability subsystem wired through the overlay
// stack: per-node load distributions, observer message/op accounting, the
// --metrics JSON schema, the span-count == executed-ops contract,
// per-backend trace determinism, the zero-overhead detached default, and
// the zero-op replay aggregates (capability-filtered traces must read as 0
// everywhere, never divide).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "obs/trace.h"
#include "overlay/registry.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using obs::LogHistogram;
using obs::Observer;
using obs::OpKind;
using overlay::Overlay;
using workload::OpType;

constexpr Key kDomainHi = 1000000000;

struct Built {
  std::unique_ptr<Overlay> ov;
  std::vector<net::PeerId> members;
};

Built Grow(const std::string& name, size_t n, uint64_t seed) {
  overlay::Config cfg;
  cfg.seed = seed;
  Built b;
  b.ov = overlay::Make(name, cfg);
  BATON_CHECK(b.ov != nullptr) << "unknown backend " << name;
  Rng rng(Mix64(seed));
  workload::UniformKeys keys(1, kDomainHi);
  b.members.push_back(b.ov->Bootstrap());
  while (b.members.size() < n) {
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.members.push_back(st.peer);
    for (int i = 0; i < 5; ++i) {
      BATON_CHECK(b.ov
                      ->Insert(b.members[rng.NextBelow(b.members.size())],
                               keys.Next(&rng))
                      .ok());
    }
  }
  return b;
}

workload::Trace MixedTrace(uint64_t seed, size_t n) {
  workload::ChurnMix mix;
  mix.joins = n / 10;
  mix.leaves = n / 10;
  mix.inserts = 50;
  mix.exacts = 50;
  mix.ranges = 10;
  mix.range_width = kDomainHi / 1000;
  Rng rng(Mix64(seed ^ 0xc03a));
  workload::UniformKeys keys(1, kDomainHi);
  return workload::MakeChurnTrace(&rng, &keys, mix);
}

TEST(NodeLoad, AbsentNodesCountAsZeroLoad) {
  // NodeLoad turns a family into a distribution over [0, n): a node past
  // the end of the family counts as a zero-load sample.
  const std::vector<uint64_t> family = {0, 0, 10, 0, 1};
  LogHistogram load = obs::NodeLoad(family, 6);
  EXPECT_EQ(load.count(), 6u);
  EXPECT_EQ(load.sum(), 11u);
  EXPECT_EQ(load.max(), 10u);
  EXPECT_EQ(load.Quantile(0.5), 0u);  // 4 of 6 nodes saw nothing
}

TEST(Observer, CountsEveryMessageTheNetworkCounts) {
  Built b = Grow("baton", 64, 11);
  Observer obs;
  b.ov->AttachObserver(&obs);
  auto before = b.ov->network()->Snapshot();
  Rng rng(5);
  for (int q = 0; q < 200; ++q) {
    auto st = b.ov->ExactSearch(b.members[rng.NextBelow(b.members.size())],
                                rng.UniformInt(1, kDomainHi));
    ASSERT_TRUE(st.ok()) << st.status.ToString();
  }
  uint64_t net_delta =
      net::Network::Delta(before, b.ov->network()->Snapshot());
  // Every message the network counted while attached hit the observer.
  EXPECT_EQ(obs.messages(), net_delta);
  EXPECT_GT(net_delta, 0u);
  EXPECT_EQ(obs.op(OpKind::kExact).count, 200u);
  EXPECT_EQ(obs.op(OpKind::kExact).ok, 200u);
  EXPECT_EQ(obs.op(OpKind::kExact).hops_hist.count(), 200u);
  // Per-node receive counts partition the global message counter.
  const std::vector<uint64_t>& in = obs.msgs_in();
  uint64_t in_sum = std::accumulate(in.begin(), in.end(), uint64_t{0});
  EXPECT_EQ(in_sum, net_delta);
}

TEST(Observer, MetricsJsonPresenceRules) {
  // The --metrics schema, pinned where the goldens cannot reach (their ops
  // all succeed): an op's count and histograms appear once it has run and
  // its ok once one has succeeded, an op that never ran has no entry, and
  // every net.msgs.* counter and node.* family is always present.
  Built b = Grow("chord", 9, 41);
  Observer obs;
  b.ov->AttachObserver(&obs);
  overlay::OpStats range = b.ov->RangeSearch(b.members[0], 1000, 2000);
  EXPECT_EQ(range.status.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(b.ov->ExactSearch(b.members[1], 123456789).ok());
  std::ostringstream out;
  obs.AppendJson(out);
  EXPECT_EQ(out.str(),
            "{\"counters\": {\"net.messages\": 1, \"net.msgs.data\": 0, "
            "\"net.msgs.failure\": 0, \"net.msgs.join_search\": 0, "
            "\"net.msgs.leave_search\": 0, \"net.msgs.load_balance\": 0, "
            "\"net.msgs.maintenance\": 0, \"net.msgs.other\": 0, "
            "\"net.msgs.query\": 1, \"net.msgs.replication\": 0, "
            "\"op.exact.count\": 1, \"op.exact.ok\": 1, "
            "\"op.range.count\": 1}, "
            "\"gauges\": {}, \"histograms\": {"
            "\"op.exact.hops\": {\"count\": 1, \"mean\": 1, \"p50\": 1, "
            "\"p90\": 1, \"p99\": 1, \"max\": 1}, "
            "\"op.exact.latency_ticks\": {\"count\": 1, \"mean\": 0, "
            "\"p50\": 0, \"p90\": 0, \"p99\": 0, \"max\": 0}, "
            "\"op.exact.messages\": {\"count\": 1, \"mean\": 1, \"p50\": 1, "
            "\"p90\": 1, \"p99\": 1, \"max\": 1}, "
            "\"op.range.hops\": {\"count\": 1, \"mean\": 0, \"p50\": 0, "
            "\"p90\": 0, \"p99\": 0, \"max\": 0}, "
            "\"op.range.latency_ticks\": {\"count\": 1, \"mean\": 0, "
            "\"p50\": 0, \"p90\": 0, \"p99\": 0, \"max\": 0}, "
            "\"op.range.messages\": {\"count\": 1, \"mean\": 0, \"p50\": 0, "
            "\"p90\": 0, \"p99\": 0, \"max\": 0}}, "
            "\"per_node\": {"
            "\"node.msgs_in\": {\"nodes\": 6, \"sum\": 1, \"mean\": 0.166667, "
            "\"max\": 1, \"p50\": 0, \"p99\": 1}, "
            "\"node.msgs_out\": {\"nodes\": 2, \"sum\": 1, \"mean\": 0.5, "
            "\"max\": 1, \"p50\": 0, \"p99\": 1}, "
            "\"node.replica_msgs\": {\"nodes\": 0, \"sum\": 0, \"mean\": 0, "
            "\"max\": 0, \"p50\": 0, \"p99\": 0}, "
            "\"node.restructure\": {\"nodes\": 0, \"sum\": 0, \"mean\": 0, "
            "\"max\": 0, \"p50\": 0, \"p99\": 0}, "
            "\"node.routing_touch\": {\"nodes\": 0, \"sum\": 0, \"mean\": 0, "
            "\"max\": 0, \"p50\": 0, \"p99\": 0}}}");
}

TEST(Observer, SpanCountEqualsExecutedOps) {
  // The acceptance contract: one span per executed public operation.
  // Skipped / capability-filtered ops never touch the overlay, so they must
  // not produce spans; each recovered failure adds one extra "recover" span
  // on top of its "fail" span.
  for (const std::string& name : {std::string("baton"), std::string("chord"),
                                  std::string("d3tree")}) {
    Built b = Grow(name, 48, 17);
    Observer obs(/*tracing=*/true);
    b.ov->AttachObserver(&obs);
    workload::Trace trace = MixedTrace(17, 48);
    Rng rng(Mix64(uint64_t{17} ^ 0x5eed));
    workload::ReplayResult res =
        workload::Replay(*b.ov, trace, &rng, &b.members);
    uint64_t executed = 0;
    for (const auto& agg : res.per_op) executed += agg.count;
    ASSERT_NE(obs.trace(), nullptr);
    EXPECT_EQ(obs.trace()->span_count(), executed) << name;
    EXPECT_GT(executed, 0u) << name;
    // Message events inherit causally ordered ticks: deliver >= send, span
    // end >= span begin.
    for (const auto& e : obs.trace()->messages()) {
      ASSERT_GE(e.deliver, e.send);
    }
    for (const auto& s : obs.trace()->spans()) {
      ASSERT_GE(s.end, s.begin);
    }
  }
}

TEST(Observer, RecoveredFailuresAddOneSpanEach) {
  Built b = Grow("baton", 48, 23);
  Observer obs(/*tracing=*/true);
  b.ov->AttachObserver(&obs);
  workload::ChurnMix mix;
  mix.failures = 6;
  mix.exacts = 10;
  Rng trng(Mix64(23 ^ 0xfa11));
  workload::UniformKeys keys(1, kDomainHi);
  workload::Trace trace = workload::MakeChurnTrace(&trng, &keys, mix);
  Rng rng(Mix64(23));
  workload::ReplayResult res = workload::Replay(*b.ov, trace, &rng, &b.members);
  uint64_t executed = 0;
  for (const auto& agg : res.per_op) executed += agg.count;
  // Replay runs RecoverAllFailures after every successful Fail; the
  // recovery is merged into the kFail aggregate but is its own span.
  uint64_t expected = executed + res.of(OpType::kFail).ok;
  EXPECT_EQ(obs.trace()->span_count(), expected);
  EXPECT_EQ(obs.op(OpKind::kRecover).count, res.of(OpType::kFail).ok);
}

TEST(Observer, TraceIsByteIdenticalAcrossRunsPerBackend) {
  // Same seed => byte-identical Chrome trace JSON, for every registered
  // backend, with a latency model attached (real ticks) -- the determinism
  // guarantee that makes traces diffable artifacts.
  for (const std::string& name : overlay::RegisteredNames()) {
    std::string runs[2];
    for (int run = 0; run < 2; ++run) {
      Built b = Grow(name, 32, 7);
      sim::Clock clock;
      sim::UniformLatency link(5, 20);
      b.ov->AttachLatency(&clock, &link, 13);
      Observer obs(/*tracing=*/true);
      b.ov->AttachObserver(&obs);
      workload::Trace trace = MixedTrace(7, 32);
      Rng rng(Mix64(uint64_t{7} ^ 0x5eed));
      workload::Replay(*b.ov, trace, &rng, &b.members);
      std::ostringstream out;
      obs::WriteChromeTrace(out, {{name + " N=32 seed=0", obs.trace()}});
      runs[run] = out.str();
    }
    EXPECT_EQ(runs[0], runs[1]) << name;
    EXPECT_GT(runs[0].size(), 2u) << name;
  }
}

TEST(Observer, DetachedRunIsIndistinguishable) {
  // The zero-overhead default: an unobserved run and an observed run make
  // identical protocol decisions -- same per-op message bills, same hops,
  // same final counters. (Bench byte-identity rides on this.)
  auto run = [](bool observed) {
    Built b = Grow("baton", 48, 31);
    Observer obs(/*tracing=*/true);
    if (observed) b.ov->AttachObserver(&obs);
    workload::Trace trace = MixedTrace(31, 48);
    Rng rng(Mix64(uint64_t{31} ^ 0x5eed));
    workload::ReplayResult res =
        workload::Replay(*b.ov, trace, &rng, &b.members);
    std::vector<uint64_t> sig;
    for (const auto& agg : res.per_op) {
      sig.push_back(agg.count);
      sig.push_back(agg.messages_hist.sum());
      sig.push_back(agg.hops_hist.sum());
    }
    sig.push_back(b.ov->network()->total_messages());
    return sig;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Replay, ZeroOpAggregatesReadAsZeroEverywhere) {
  // A Chord replay of a range-only trace executes nothing: every op is
  // capability-filtered before touching the overlay. All derived stats must
  // be total functions -- 0, not a division by zero or an empty-histogram
  // walk.
  Built b = Grow("chord", 32, 3);
  workload::Trace trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back({OpType::kRange, Key{1000} * (i + 1),
                     Key{1000} * (i + 1) + 500});
  }
  Rng rng(Mix64(3));
  workload::ReplayResult res = workload::Replay(*b.ov, trace, &rng, &b.members);
  const workload::OpAggregate& agg = res.of(OpType::kRange);
  EXPECT_EQ(agg.count, 0u);
  EXPECT_EQ(agg.unsupported, 40u);
  EXPECT_DOUBLE_EQ(agg.MeanMessages(), 0.0);
  EXPECT_DOUBLE_EQ(agg.MeanHops(), 0.0);
  EXPECT_DOUBLE_EQ(agg.MeanLatency(), 0.0);
  EXPECT_EQ(agg.hops_hist.Quantile(0.5), 0u);
  EXPECT_EQ(agg.latency_hist.Quantile(0.99), 0u);
  for (const workload::OpAggregate& a : res.per_op) {
    EXPECT_EQ(a.messages_hist.sum(), 0u);
  }
}

TEST(Trace, ChromeJsonShape) {
  obs::TraceRecorder rec;
  rec.BeginSpan(OpKind::kExact, 10);
  rec.AddMessage(1, 2, 0, 10, 12);
  rec.AddMessage(2, 3, 0, 12, 15);
  rec.EndSpan(15, {true, 3, 2, 2, 5});
  std::ostringstream out;
  obs::WriteChromeTrace(out, {{"test N=1", &rec}});
  std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exact\""), std::string::npos);
  EXPECT_EQ(rec.span_count(), 1u);
  EXPECT_EQ(rec.message_count(), 2u);
}

}  // namespace
}  // namespace baton
