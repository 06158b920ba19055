// Tests for the fault-injection subsystem and the overlay resilience
// policy: deterministic fault plans (same seed, same schedule), the
// no-fault byte-identity guard (an all-zero plan changes nothing), drop
// recovery through bounded retry on every backend, duplicate-delivery
// idempotence, RetryOrigin contracts, correlated-failure traces, straggler
// service overrides, and the accounting of dropped messages: the sender
// pays, no observer sees them, and every drop is billed to one op.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/observer.h"
#include "overlay/registry.h"
#include "serve/engine.h"
#include "serve/node_model.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using fault::LinkFaults;
using fault::Plan;
using fault::PlanConfig;
using fault::Policy;
using overlay::Capability;
using overlay::Make;
using overlay::OpStats;
using overlay::Overlay;
using workload::Op;
using workload::OpType;

constexpr Key kDomainHi = 1000000;

// Grows an overlay to n members via random contacts (bench_common is not
// linked into tests) and preloads a deterministic key per node.
struct Built {
  std::unique_ptr<Overlay> ov;
  std::vector<net::PeerId> members;
  std::vector<Key> keys;
};

Built Grow(const std::string& name, size_t n, uint64_t seed) {
  overlay::Config cfg;
  cfg.seed = seed;
  Built b;
  b.ov = Make(name, cfg);
  BATON_CHECK(b.ov != nullptr) << "unknown backend " << name;
  Rng rng(Mix64(seed));
  b.members.push_back(b.ov->Bootstrap());
  while (b.members.size() < n) {
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.members.push_back(st.peer);
  }
  for (size_t i = 0; i < 4 * n; ++i) {
    Key k = 1 + rng.NextBelow(kDomainHi);
    auto st = b.ov->Insert(b.members[rng.NextBelow(n)], k);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.keys.push_back(k);
  }
  return b;
}

std::vector<std::string> AllBackends() {
  return {"baton", "chord", "multiway", "d3tree"};
}

// ---------- Plan determinism ----------

TEST(FaultPlan, SameSeedSameSchedule) {
  PlanConfig cfg;
  cfg.seed = 42;
  cfg.all.drop = 0.1;
  cfg.all.duplicate = 0.05;
  Plan a(cfg), b(cfg);
  Rng msgs(1);
  for (int i = 0; i < 10000; ++i) {
    auto from = static_cast<net::PeerId>(msgs.NextBelow(64));
    auto to = static_cast<net::PeerId>(msgs.NextBelow(64));
    auto t = static_cast<net::MsgType>(msgs.NextBelow(4));
    auto da = a.OnMessage(from, to, t);
    auto db = b.OnMessage(from, to, t);
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicates, db.duplicates);
  }
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_GT(a.duplicated(), 0u);
}

TEST(FaultPlan, DifferentSeedDifferentSchedule) {
  PlanConfig cfg;
  cfg.seed = 42;
  cfg.all.drop = 0.1;
  Plan a(cfg);
  cfg.seed = 43;
  Plan b(cfg);
  Rng msgs(1);
  bool any_diff = false;
  for (int i = 0; i < 10000 && !any_diff; ++i) {
    auto from = static_cast<net::PeerId>(msgs.NextBelow(64));
    auto to = static_cast<net::PeerId>(msgs.NextBelow(64));
    auto t = static_cast<net::MsgType>(msgs.NextBelow(4));
    if (a.OnMessage(from, to, t).drop != b.OnMessage(from, to, t).drop) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---------- Zero-fault attachment is a no-op ----------

TEST(FaultPlan, AllZeroPlanChangesNothing) {
  for (const std::string& name : AllBackends()) {
    Built base = Grow(name, 40, 11);
    Built faulted = Grow(name, 40, 11);
    Plan plan(PlanConfig{});  // every probability zero
    faulted.ov->AttachFaults(&plan);

    Rng ra(Mix64(99)), rb(Mix64(99));
    for (int i = 0; i < 200; ++i) {
      Key k = 1 + ra.NextBelow(kDomainHi);
      net::PeerId fa = base.members[ra.NextBelow(base.members.size())];
      Key k2 = 1 + rb.NextBelow(kDomainHi);
      net::PeerId fb =
          faulted.members[rb.NextBelow(faulted.members.size())];
      ASSERT_EQ(k, k2);
      ASSERT_EQ(fa, fb);
      OpStats a = base.ov->ExactSearch(fa, k);
      OpStats b = faulted.ov->ExactSearch(fb, k);
      ASSERT_EQ(a.ok(), b.ok()) << name;
      ASSERT_EQ(a.found, b.found) << name;
      ASSERT_EQ(a.peer, b.peer) << name;
      ASSERT_EQ(a.messages, b.messages) << name;
      ASSERT_EQ(b.retries, 0) << name;
      ASSERT_FALSE(b.degraded) << name;
      ASSERT_EQ(b.dropped_msgs, 0u) << name;
    }
    EXPECT_EQ(plan.dropped(), 0u);
    faulted.ov->AttachFaults(nullptr);
  }
}

// ---------- A dropped message is paid for but never delivered ----------

TEST(FaultPlan, DroppedMessageReachesNoObserver) {
  net::Network net;
  const net::PeerId a = net.Register();
  const net::PeerId b = net.Register();
  PlanConfig pcfg;
  pcfg.all.drop = 1.0;
  Plan plan(pcfg);
  obs::Observer obs;
  net.AttachFaults(&plan);
  net.AttachObserver(&obs);
  net.Count(a, b, net::MsgType::kExactQuery);
  net.AttachObserver(nullptr);
  net.AttachFaults(nullptr);

  EXPECT_EQ(net.total_messages(), 1u);
  EXPECT_EQ(plan.dropped(), 1u);
  EXPECT_EQ(obs.messages(), 0u);
  const std::vector<uint64_t>& in = obs.msgs_in();
  EXPECT_EQ(b < in.size() ? in[b] : 0u, 0u);
}

// ---------- Retry recovers dropped operations ----------

// Success counts over the same query workload at a fixed retry budget.
struct LossRun {
  int ok = 0;
  int gave_up = 0;
  uint64_t retries = 0;
};

LossRun RunLossy(const std::string& name, int max_retries) {
  Built b = Grow(name, 60, 17);
  PlanConfig pcfg;
  pcfg.seed = 23;
  Plan plan(pcfg);
  LinkFaults lf;
  lf.drop = 0.15;  // heavy loss on query traffic only
  plan.SetCategoryFaults(net::MsgCategory::kQuery, lf);
  Policy pol;
  pol.max_retries = max_retries;
  b.ov->SetResilience(pol);
  b.ov->AttachFaults(&plan);

  LossRun out;
  Rng rng(Mix64(5));
  for (int i = 0; i < 300; ++i) {
    net::PeerId from = b.members[rng.NextBelow(b.members.size())];
    OpStats st = b.ov->ExactSearch(from, b.keys[i % b.keys.size()]);
    if (st.ok()) {
      ++out.ok;
      EXPECT_TRUE(st.found);  // preloaded keys must still be found
    } else {
      ++out.gave_up;
      EXPECT_TRUE(st.gave_up);
      EXPECT_TRUE(st.degraded);
      EXPECT_EQ(st.status.code(), StatusCode::kUnavailable);
    }
    out.retries += static_cast<uint64_t>(st.retries);
  }
  b.ov->AttachFaults(nullptr);
  return out;
}

TEST(Resilience, RetryBudgetRecoversDroppedQueriesOnEveryBackend) {
  for (const std::string& name : AllBackends()) {
    LossRun none = RunLossy(name, 0);
    LossRun some = RunLossy(name, 4);
    EXPECT_GT(none.gave_up, 0) << name << ": drop rate too low to bite";
    EXPECT_EQ(none.retries, 0u) << name;
    EXPECT_GT(some.retries, 0u) << name;
    EXPECT_GT(some.ok, none.ok)
        << name << ": a retry budget must buy back success";
  }
}

TEST(Resilience, MutatingOpsAbsorbDropsAsDegraded) {
  Built b = Grow("baton", 40, 29);
  PlanConfig pcfg;
  pcfg.seed = 31;
  pcfg.all.drop = 0.25;  // every category, so membership ops lose messages
  Plan plan(pcfg);
  Policy pol;
  pol.max_retries = 3;
  b.ov->SetResilience(pol);
  b.ov->AttachFaults(&plan);

  Rng rng(Mix64(7));
  int degraded = 0;
  for (int i = 0; i < 30; ++i) {
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    ASSERT_TRUE(st.ok()) << "mutating ops never give up";
    EXPECT_EQ(st.retries, 0) << "mutating ops are not retried";
    EXPECT_FALSE(st.gave_up);
    if (st.degraded) {
      ++degraded;
      EXPECT_GT(st.dropped_msgs, 0u);
    }
    b.members.push_back(st.peer);
  }
  EXPECT_GT(degraded, 0) << "25% loss must degrade some joins";
  b.ov->AttachFaults(nullptr);
}

// ---------- Duplicate delivery is idempotent ----------

TEST(Resilience, DuplicateDeliveryPreservesAnswers) {
  Built clean = Grow("baton", 50, 37);
  Built dup = Grow("baton", 50, 37);
  PlanConfig pcfg;
  pcfg.seed = 41;
  Plan plan(pcfg);
  LinkFaults lf;
  lf.duplicate = 1.0;  // every query message delivered twice
  plan.SetCategoryFaults(net::MsgCategory::kQuery, lf);
  dup.ov->AttachFaults(&plan);

  Rng ra(Mix64(3)), rb(Mix64(3));
  uint64_t clean_msgs = 0, dup_msgs = 0;
  for (int i = 0; i < 200; ++i) {
    Key k = clean.keys[static_cast<size_t>(i) % clean.keys.size()];
    OpStats a =
        clean.ov->ExactSearch(clean.members[ra.NextBelow(50)], k);
    OpStats b = dup.ov->ExactSearch(dup.members[rb.NextBelow(50)], k);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.found, b.found);
    ASSERT_EQ(a.peer, b.peer);  // duplicates must not change the answer
    // Ops that touched the wire know they absorbed faults; origin-local
    // answers (zero messages) have nothing to duplicate.
    ASSERT_EQ(b.degraded, b.messages > 0);
    clean_msgs += a.messages;
    dup_msgs += b.messages;
  }
  EXPECT_EQ(dup_msgs, 2 * clean_msgs);  // every copy is billed
  EXPECT_GT(plan.duplicated(), 0u);
  dup.ov->AttachFaults(nullptr);
}

// ---------- Backoff and timeout accounting ----------

TEST(Resilience, BackoffChargesLatencyDeterministically) {
  Policy pol;
  pol.backoff_ticks = 4;
  EXPECT_EQ(pol.BackoffFor(0), 0u);
  EXPECT_EQ(pol.BackoffFor(1), 4u);
  EXPECT_EQ(pol.BackoffFor(2), 8u);
  EXPECT_EQ(pol.BackoffFor(3), 16u);
  Policy none;
  EXPECT_EQ(none.BackoffFor(5), 0u);
}

TEST(Resilience, TimeoutRetriesSlowAttempts) {
  Built b = Grow("baton", 50, 61);
  sim::Clock clock;
  sim::ConstantLatency lat(10);
  b.ov->AttachLatency(&clock, &lat, 73);

  PlanConfig pcfg;
  pcfg.seed = 67;
  Plan plan(pcfg);  // no drops: only the timeout can trigger retries
  Policy pol;
  pol.max_retries = 2;
  pol.timeout_ticks = 1;  // every attempt overruns (const 10/hop)
  b.ov->SetResilience(pol);
  b.ov->AttachFaults(&plan);

  OpStats st = b.ov->ExactSearch(b.members[7], b.keys[0]);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.gave_up);
  EXPECT_EQ(st.retries, 2);
  EXPECT_EQ(st.timeouts, 3);  // every attempt, the last included
  b.ov->AttachFaults(nullptr);
}

TEST(Resilience, PolicyIsInertWithoutAPlan) {
  // A policy that would retry every attempt (timeout 1 tick, 10 ticks per
  // hop) must change nothing while no fault plan is attached: the state a
  // bench is left in after detaching its plan but not its policy.
  for (const std::string& name : AllBackends()) {
    Built plain = Grow(name, 60, 83);
    Built policed = Grow(name, 60, 83);
    sim::Clock c1, c2;
    sim::ConstantLatency lat(10);
    plain.ov->AttachLatency(&c1, &lat, 89);
    policed.ov->AttachLatency(&c2, &lat, 89);
    Policy pol;
    pol.max_retries = 3;
    pol.timeout_ticks = 1;
    pol.reroute = true;
    policed.ov->SetResilience(pol);

    const bool ranges = plain.ov->Supports(overlay::kRangeSearch);
    int overran = 0;  // ops the policy would have timed out
    Rng rng(Mix64(97));
    for (int i = 0; i < 40; ++i) {
      net::PeerId from = plain.members[rng.NextBelow(plain.members.size())];
      Key k = plain.keys[rng.NextBelow(plain.keys.size())];
      OpStats a, b;
      if (i % 4 == 3 && ranges) {
        a = plain.ov->RangeSearch(from, k, k + kDomainHi / 50);
        b = policed.ov->RangeSearch(from, k, k + kDomainHi / 50);
      } else if (i % 4 == 2) {
        a = plain.ov->Insert(from, k + 1);
        b = policed.ov->Insert(from, k + 1);
      } else {
        a = plain.ov->ExactSearch(from, k);
        b = policed.ov->ExactSearch(from, k);
      }
      ASSERT_TRUE(a.ok()) << name << " op " << i;
      EXPECT_EQ(a.status.ToString(), b.status.ToString()) << name << " " << i;
      EXPECT_EQ(b.retries, 0) << name << " op " << i;
      EXPECT_EQ(b.timeouts, 0) << name << " op " << i;
      EXPECT_FALSE(b.gave_up) << name << " op " << i;
      EXPECT_EQ(a.latency_ticks, b.latency_ticks) << name << " op " << i;
      if (b.latency_ticks > pol.timeout_ticks) ++overran;
      EXPECT_EQ(a.hops, b.hops) << name << " op " << i;
      EXPECT_EQ(a.messages, b.messages) << name << " op " << i;
      EXPECT_EQ(a.peer, b.peer) << name << " op " << i;
    }
    EXPECT_GT(overran, 0) << name;
  }
}

// ---------- RetryOrigin contracts ----------

TEST(Resilience, RetryOriginReturnsLiveMembersOnEveryBackend) {
  for (const std::string& name : AllBackends()) {
    Built b = Grow(name, 40, 79);
    for (net::PeerId origin : b.members) {
      for (int attempt = 1; attempt <= 4; ++attempt) {
        net::PeerId r = b.ov->RetryOrigin(origin, attempt);
        EXPECT_NE(r, net::kNullPeer) << name;
        EXPECT_TRUE(std::count(b.members.begin(), b.members.end(), r) > 0)
            << name << ": retry origin must be a current member";
      }
    }
  }
}

// ---------- Correlated-failure traces ----------

TEST(Workload, CorrelatedFailTraceShapesAndShuffles) {
  workload::CorrelatedFailMix mix;
  mix.bursts = 3;
  mix.burst_width = 5;
  mix.exacts = 10;
  mix.inserts = 4;
  workload::UniformKeys gen(1, kDomainHi);
  Rng rng(Mix64(83));
  workload::Trace t = workload::MakeCorrelatedFailTrace(&rng, &gen, mix);
  ASSERT_EQ(t.size(), 17u);
  size_t bursts = 0;
  for (const Op& op : t) {
    if (op.type == OpType::kFailRegion) {
      ++bursts;
      EXPECT_EQ(op.key_hi, 5u);  // burst width rides in key_hi
    }
  }
  EXPECT_EQ(bursts, 3u);
}

TEST(Workload, FailRegionReplayFailsConsecutiveCanonicalMembers) {
  Built b = Grow("baton", 40, 89);
  workload::Trace t;
  t.push_back({OpType::kFailRegion, 0, 4});
  t.push_back({OpType::kFailRegion, 0, 4});
  Rng rng(Mix64(97));
  size_t before = b.members.size();
  workload::ReplayResult rr =
      workload::Replay(*b.ov, t, &rng, &b.members);
  const workload::OpAggregate& fr = rr.of(OpType::kFailRegion);
  EXPECT_EQ(fr.count, 2u);
  EXPECT_EQ(b.members.size(), before - 2 * 4)
      << "each burst removes burst_width members";
  EXPECT_EQ(b.ov->size(), before - 2 * 4);
  EXPECT_GT(fr.messages_hist.sum(), 0u);
  b.ov->CheckInvariants();
}

TEST(Workload, FailRegionUnsupportedOnChord) {
  Built b = Grow("chord", 20, 101);
  workload::Trace t;
  t.push_back({OpType::kFailRegion, 0, 3});
  Rng rng(Mix64(103));
  workload::ReplayResult rr =
      workload::Replay(*b.ov, t, &rng, &b.members);
  EXPECT_EQ(rr.of(OpType::kFailRegion).unsupported, 1u);
  EXPECT_EQ(b.members.size(), 20u);
}

// ---------- Straggler service overrides ----------

TEST(NodeModel, PerNodeServiceOverride) {
  serve::NodeModel nm(2);
  nm.SetNodeServiceTicks(1, 10);
  EXPECT_EQ(nm.node_service_ticks(0), 2u);
  EXPECT_EQ(nm.node_service_ticks(1), 10u);
  auto fast = nm.Admit(0, 0, 0);
  auto slow = nm.Admit(1, 0, 0);
  EXPECT_EQ(fast.done, 2u);
  EXPECT_EQ(slow.done, 10u);
  // Back-to-back arrivals queue behind the straggler's longer occupancy.
  auto slow2 = nm.Admit(1, 0, 0);
  EXPECT_EQ(slow2.start, 10u);
  EXPECT_EQ(slow2.done, 20u);
}

TEST(Engine, StragglerOverridesStretchTheRun) {
  Built a = Grow("baton", 30, 107);
  Built b = Grow("baton", 30, 107);
  workload::Trace t;
  Rng krng(Mix64(109));
  for (int i = 0; i < 100; ++i) {
    t.push_back(
        {OpType::kExact, static_cast<Key>(1 + krng.NextBelow(kDomainHi)), 0});
  }
  serve::EngineConfig fast_cfg;
  fast_cfg.service_ticks = 1;
  serve::EngineConfig slow_cfg = fast_cfg;
  for (net::PeerId p : b.members) {
    slow_cfg.node_service_overrides.emplace_back(p, 8);
  }
  serve::Engine fast(a.ov.get(), &a.members, fast_cfg);
  serve::Engine slow(b.ov.get(), &b.members, slow_cfg);
  Rng ra(Mix64(113)), rb(Mix64(113));
  serve::EngineResult fr = fast.RunClosedLoop(t, &ra);
  serve::EngineResult sr = slow.RunClosedLoop(t, &rb);
  EXPECT_EQ(fr.completed, sr.completed);
  EXPECT_GT(sr.makespan, fr.makespan)
      << "slower servers must stretch the same workload";
}

// ---------- Drop accounting ----------

TEST(Resilience, EveryDropIsBilledToOneOp) {
  Built b = Grow("baton", 50, 127);
  PlanConfig pcfg;
  pcfg.seed = 131;
  Plan plan(pcfg);
  LinkFaults lf;
  lf.drop = 0.2;
  plan.SetCategoryFaults(net::MsgCategory::kQuery, lf);
  Policy pol;
  pol.max_retries = 2;
  b.ov->SetResilience(pol);
  b.ov->AttachFaults(&plan);

  uint64_t dropped = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
  Rng rng(Mix64(137));
  for (int i = 0; i < 200; ++i) {
    OpStats st =
        b.ov->ExactSearch(b.members[rng.NextBelow(50)],
                          b.keys[static_cast<size_t>(i) % b.keys.size()]);
    dropped += st.dropped_msgs;
    retries += static_cast<uint64_t>(st.retries);
    if (st.degraded) ++degraded;
  }
  b.ov->AttachFaults(nullptr);

  EXPECT_GT(dropped, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(degraded, 0u);
  // Dropped messages of rejected attempts are billed too.
  EXPECT_EQ(dropped, plan.dropped());
}

}  // namespace
}  // namespace baton
