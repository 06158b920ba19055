// Tests for the serving engine: arrival processes, the FIFO node model's
// Lindley recursion, the event calendar's order, open-loop queueing
// behaviour, overload accounting (drops, timeouts), and the differential
// anchor -- closed-loop engine replay matches workload::Replay aggregates
// exactly on every backend.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "fixtures.h"
#include "net/network.h"
#include "overlay/registry.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "serve/node_model.h"
#include "serve/tick_calendar.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace {

using serve::Engine;
using serve::EngineConfig;
using serve::EngineResult;
using serve::NodeModel;
using workload::Op;
using workload::OpType;

// ---------- Arrivals ----------

TEST(Arrivals, FixedRateEmitsEvenGaps) {
  serve::FixedArrivals a(0.5);  // one request every 2 ticks
  for (sim::Time expect : {0u, 2u, 4u, 6u, 8u}) {
    EXPECT_EQ(a.Next(), expect);
  }
}

TEST(Arrivals, FixedRateAccumulatesFractionalGaps) {
  // Gap 2.5 ticks: individual emissions round down to the containing tick,
  // but the accumulator must not drift -- 100 gaps still span ~250 ticks.
  serve::FixedArrivals a(0.4);
  sim::Time t = 0;
  for (int i = 0; i <= 100; ++i) t = a.Next();
  EXPECT_GE(t, 248u);
  EXPECT_LE(t, 250u);
}

TEST(Arrivals, PoissonIsDeterministicPerSeedAndNonDecreasing) {
  serve::PoissonArrivals a(0.1, 7), b(0.1, 7), c(0.1, 8);
  sim::Time prev = 0;
  bool any_diff = false;
  for (int i = 0; i < 200; ++i) {
    sim::Time t = a.Next();
    EXPECT_EQ(t, b.Next());  // same seed, same schedule
    if (t != c.Next()) any_diff = true;
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_TRUE(any_diff);  // different seed, different schedule
  // 200 draws at mean gap 10: the long-run rate should be in the ballpark.
  EXPECT_GT(prev, 1000u);
  EXPECT_LT(prev, 4000u);
}

// ---------- NodeModel ----------

TEST(NodeModel, LindleyRecursionQueuesFifo) {
  NodeModel nm(10);
  auto a = nm.Admit(0, 0, 0);  // idle: starts immediately
  EXPECT_EQ(a.start, 0u);
  EXPECT_EQ(a.done, 10u);
  EXPECT_EQ(a.ahead, 0u);
  auto b = nm.Admit(0, 0, 0);  // behind a
  EXPECT_EQ(b.start, 10u);
  EXPECT_EQ(b.done, 20u);
  EXPECT_EQ(b.ahead, 1u);
  auto c = nm.Admit(0, 5, 0);  // behind a (in service) and b
  EXPECT_EQ(c.start, 20u);
  EXPECT_EQ(c.ahead, 2u);
  auto d = nm.Admit(0, 100, 0);  // node drained long ago
  EXPECT_EQ(d.start, 100u);
  EXPECT_EQ(d.ahead, 0u);
  // Independent nodes do not interact.
  auto e = nm.Admit(3, 0, 0);
  EXPECT_EQ(e.start, 0u);
  EXPECT_EQ(nm.max_served(), 4u);
  EXPECT_EQ(nm.max_peak_depth(), 2u);
  EXPECT_EQ(nm.total_busy_ticks(), 50u);
}

TEST(NodeModel, QueueBoundRefusesWithoutSideEffects) {
  NodeModel nm(10);
  nm.Admit(0, 0, 2);
  nm.Admit(0, 0, 2);  // ahead=1, admitted (bound is 2)
  auto refused = nm.Admit(0, 0, 2);  // ahead=2 >= bound
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(nm.max_served(), 2u);  // state untouched by the refusal
  EXPECT_EQ(nm.total_busy_ticks(), 20u);
  // The refused message consumed no capacity: the next admission after the
  // backlog drains starts exactly when the two admitted messages finish.
  auto later = nm.Admit(0, 20, 2);
  EXPECT_TRUE(later.accepted);
  EXPECT_EQ(later.start, 20u);
}

TEST(NodeModel, ZeroServiceTicksIsNullModel) {
  NodeModel nm(0);
  auto a = nm.Admit(0, 7, 0);
  auto b = nm.Admit(0, 7, 0);
  EXPECT_EQ(a.done, 7u);
  EXPECT_EQ(b.start, 7u);
  EXPECT_EQ(b.ahead, 0u);  // nothing ever waits
}

// ---------- TickCalendar ----------

/// A min-queue on (tick, push sequence): the order the calendar must give.
struct RefEvent {
  sim::Time tick;
  uint64_t seq;
  uint32_t id;
  bool operator>(const RefEvent& o) const {
    return tick != o.tick ? tick > o.tick : seq > o.seq;
  }
};
using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

/// Takes one event before `limit` from both and checks they agree on
/// whether one is due, which id it is, and where the current tick ends up.
/// Callers wrap it in ASSERT_NO_FATAL_FAILURE: once the two disagree, the
/// reference never drains.
void ExpectSamePop(serve::TickCalendar* cal, RefQueue* ref, sim::Time limit,
                   std::vector<uint32_t>* free_ids) {
  uint32_t id = 0;
  const bool due = !ref->empty() && ref->top().tick < limit;
  ASSERT_EQ(cal->PopBefore(limit, &id), due) << "limit " << limit;
  if (!due) {
    ASSERT_EQ(cal->now(), limit);
    return;
  }
  ASSERT_EQ(id, ref->top().id) << "tick " << ref->top().tick;
  ASSERT_EQ(cal->now(), ref->top().tick);
  ref->pop();
  free_ids->push_back(id);
}

/// Seeded pushes and pops against the reference queue: same-tick runs,
/// pushes far past the ring's end (so it grows several times) while the
/// current tick's list is partly taken, limits that stop short of pending
/// ticks, and long empty gaps.
TEST(TickCalendar, MatchesPriorityQueueOnTickThenPushOrder) {
  constexpr uint32_t kIds = 512;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    serve::TickCalendar cal(kIds);
    RefQueue ref;
    uint64_t seq = 0;
    std::vector<uint32_t> free_ids;
    for (uint32_t id = kIds; id-- > 0;) free_ids.push_back(id);
    auto push = [&](sim::Time tick) {
      const uint32_t id = free_ids.back();
      free_ids.pop_back();
      cal.Push(tick, id);
      ref.push({tick, seq++, id});
    };

    // At a tick whose slot moves when the ring doubles: three ids, take
    // one, then push past the ring's end and back onto the current tick.
    ASSERT_NO_FATAL_FAILURE(ExpectSamePop(&cal, &ref, 100, &free_ids));
    for (int i = 0; i < 3; ++i) push(101);
    push(102);
    ASSERT_NO_FATAL_FAILURE(ExpectSamePop(&cal, &ref, 200, &free_ids));
    push(101 + 1000 * seed);
    push(101);
    push(102);

    Rng rng(Mix64(seed));
    for (int step = 0; step < 20000; ++step) {
      const sim::Time now = cal.now();
      const uint64_t roll = rng.NextBelow(100);
      if (roll < 55 && !free_ids.empty()) {
        const uint64_t reach = rng.NextBelow(10);
        push(now + (reach < 3   ? 0
                    : reach < 9 ? rng.NextBelow(8)
                                : rng.NextBelow(5000)));
      } else {
        const sim::Time limit =
            now + (roll < 98 ? rng.NextBelow(4) : 1 + rng.NextBelow(100000));
        ASSERT_NO_FATAL_FAILURE(ExpectSamePop(&cal, &ref, limit, &free_ids));
      }
    }
    while (!ref.empty()) {
      ASSERT_NO_FATAL_FAILURE(ExpectSamePop(
          &cal, &ref, std::numeric_limits<sim::Time>::max(), &free_ids));
    }
    uint32_t id = 0;
    EXPECT_FALSE(cal.PopBefore(std::numeric_limits<sim::Time>::max(), &id));
  }
}

TEST(TickCalendar, RefusesAnEventBeforeTheCurrentTick) {
  serve::TickCalendar cal(4);
  uint32_t id = 0;
  EXPECT_FALSE(cal.PopBefore(10, &id));  // an empty calendar moves to 10
  EXPECT_EQ(cal.now(), 10u);
  EXPECT_DEATH(cal.Push(9, 0), "before the current tick");
}

// ---------- Engine ----------

using fixtures::Built;
using fixtures::Grow;

workload::Trace ExactTrace(size_t ops, workload::KeyGenerator* gen,
                           uint64_t seed) {
  Rng rng(Mix64(seed));
  workload::Trace trace;
  trace.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    trace.push_back({OpType::kExact, gen->Next(&rng), 0});
  }
  return trace;
}

/// Messages the replay booked over every op type.
uint64_t TotalMessages(const workload::ReplayResult& r) {
  uint64_t total = 0;
  for (const workload::OpAggregate& agg : r.per_op) {
    total += agg.messages_hist.sum();
  }
  return total;
}

void ExpectAggregatesEqual(const workload::ReplayResult& a,
                           const workload::ReplayResult& b) {
  for (size_t i = 0; i < static_cast<size_t>(workload::kNumOpTypes); ++i) {
    const workload::OpAggregate& x = a.per_op[i];
    const workload::OpAggregate& y = b.per_op[i];
    EXPECT_EQ(x.count, y.count) << "op " << i;
    EXPECT_EQ(x.ok, y.ok) << "op " << i;
    EXPECT_EQ(x.found, y.found) << "op " << i;
    EXPECT_EQ(x.skipped, y.skipped) << "op " << i;
    EXPECT_EQ(x.unsupported, y.unsupported) << "op " << i;
    EXPECT_EQ(x.hops_hist, y.hops_hist) << "op " << i;
    EXPECT_EQ(x.messages_hist, y.messages_hist) << "op " << i;
    EXPECT_EQ(x.latency_hist, y.latency_hist) << "op " << i;
  }
  EXPECT_EQ(a.exact_found, b.exact_found);
  EXPECT_EQ(a.range_matches, b.range_matches);
}

/// A mixed query trace with membership churn woven in: it exercises every
/// ApplyOp path.
workload::Trace MixedChurnTrace() {
  Rng trng(Mix64(99));
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = MakeMixedTrace(&trng, &gen, 30, 10, 40, 10, 500);
  trace.insert(trace.begin() + 5, {OpType::kJoin, 0, 0});
  trace.insert(trace.begin() + 25, {OpType::kLeave, 0, 0});
  trace.insert(trace.begin() + 45, {OpType::kJoin, 0, 0});
  return trace;
}

/// The differential anchor: the engine's closed-loop mode must reproduce
/// workload::Replay's aggregates EXACTLY -- same rng discipline, same
/// member bookkeeping, same OpStats -- on every registered backend.
TEST(Engine, ClosedLoopMatchesReplayOnAllBackends) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    Built ground = Grow(name, 40, 11);
    Built served = Grow(name, 40, 11);
    workload::Trace trace = MixedChurnTrace();

    workload::ReplayOptions ropts;
    ropts.record_answers = true;

    Rng r1(42);
    workload::ReplayResult expected =
        workload::Replay(*ground.ov, trace, &r1, &ground.members, ropts);

    EngineConfig cfg;
    cfg.replay = ropts;
    Engine engine(served.ov.get(), &served.members, cfg);
    Rng r2(42);
    EngineResult got = engine.RunClosedLoop(trace, &r2);

    ExpectAggregatesEqual(got.replay, expected);
    EXPECT_EQ(ground.members, served.members);
    uint64_t not_run = 0;
    for (int i = 0; i < workload::kNumOpTypes; ++i) {
      not_run += got.replay.per_op[static_cast<size_t>(i)].skipped +
                 got.replay.per_op[static_cast<size_t>(i)].unsupported;
    }
    EXPECT_EQ(got.admitted + not_run, trace.size());
    EXPECT_EQ(got.completed, got.admitted);  // nothing drops in closed loop
    EXPECT_EQ(got.dropped, 0u);
  }
}

/// Counts Next() calls on their way to the wrapped arrival process.
class CountingArrivals : public serve::Arrivals {
 public:
  explicit CountingArrivals(serve::Arrivals* inner) : inner_(inner) {}
  sim::Time Next() override {
    ++calls_;
    return inner_->Next();
  }
  size_t calls() const { return calls_; }

 private:
  serve::Arrivals* inner_;
  size_t calls_ = 0;
};

/// Open loop changes when ops are served, never what they do: with arrivals
/// dense enough to queue and shed, the per-op aggregates and answers still
/// match sequential Replay on every backend, and the arrival process is
/// read exactly once per op.
TEST(Engine, OpenLoopAggregatesMatchReplayOnAllBackends) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    Built ground = Grow(name, 40, 11);
    Built served = Grow(name, 40, 11);
    workload::Trace trace = MixedChurnTrace();

    workload::ReplayOptions ropts;
    ropts.record_answers = true;

    Rng r1(42);
    workload::ReplayResult expected =
        workload::Replay(*ground.ov, trace, &r1, &ground.members, ropts);

    EngineConfig cfg;
    cfg.replay = ropts;
    cfg.service_ticks = 4;
    cfg.max_queue = 2;
    Engine engine(served.ov.get(), &served.members, cfg);
    serve::FixedArrivals burst(4.0);  // far past capacity
    CountingArrivals arrivals(&burst);
    Rng r2(42);
    EngineResult got = engine.Run(trace, &arrivals, &r2);

    ExpectAggregatesEqual(got.replay, expected);
    EXPECT_EQ(ground.members, served.members);
    EXPECT_GT(got.dropped, 0u);
    EXPECT_EQ(got.completed + got.dropped, got.admitted);
    EXPECT_EQ(arrivals.calls(), trace.size());

    serve::FixedArrivals idle(4.0);
    CountingArrivals none(&idle);
    EngineResult empty = engine.Run({}, &none, &r2);
    EXPECT_EQ(empty.makespan, 0u);
    EXPECT_EQ(empty.admitted, 0u);
    EXPECT_EQ(none.calls(), 0u);
  }
}

TEST(Engine, SlowOpenLoopMatchesClosedLoopSojourns) {
  // Arrivals far slower than any op's drain time mean zero contention: the
  // open loop IS the closed loop on a stretched timeline, so the sojourn
  // distribution must match exactly.
  Built a = Grow("baton", 50, 3);
  Built b = Grow("baton", 50, 3);
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(200, &gen, 5);

  EngineConfig cfg;
  Engine closed(a.ov.get(), &a.members, cfg);
  Rng r1(7);
  EngineResult base = closed.RunClosedLoop(trace, &r1);

  Engine open(b.ov.get(), &b.members, cfg);
  serve::FixedArrivals slow(0.0005);  // one op per 2000 ticks
  Rng r2(7);
  EngineResult res = open.Run(trace, &slow, &r2);

  EXPECT_EQ(res.completed, base.completed);
  EXPECT_EQ(res.sojourn, base.sojourn);
  EXPECT_EQ(res.peak_queue_depth, 0u);
}

TEST(Engine, FasterArrivalsQueueMore) {
  Built a = Grow("baton", 50, 3);
  Built b = Grow("baton", 50, 3);
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(300, &gen, 5);

  EngineConfig cfg;
  cfg.service_ticks = 4;
  Engine slow_e(a.ov.get(), &a.members, cfg);
  serve::FixedArrivals slow(0.001);
  Rng r1(7);
  EngineResult uncontended = slow_e.Run(trace, &slow, &r1);

  Engine fast_e(b.ov.get(), &b.members, cfg);
  serve::FixedArrivals fast(2.0);
  Rng r2(7);
  EngineResult contended = fast_e.Run(trace, &fast, &r2);

  EXPECT_EQ(contended.completed, uncontended.completed);
  EXPECT_GT(contended.sojourn.Mean(), uncontended.sojourn.Mean());
  EXPECT_GT(contended.peak_queue_depth, uncontended.peak_queue_depth);
}

TEST(Engine, ZipfSkewQueuesWorseThanUniformAtEqualLoad) {
  // Same arrival schedule, same overlay shape; only which keys the queries
  // ask for differs. The skewed stream hammers the popular keys' owners,
  // so queueing delay -- not hop count -- drives its sojourn tail up.
  Built a = Grow("baton", 60, 13);
  Built b = Grow("baton", 60, 13);
  workload::UniformKeys uni(1, 100000000);
  workload::ZipfKeys zipf(1, 100000000, 0.99);
  workload::Trace ut = ExactTrace(400, &uni, 21);
  workload::Trace zt = ExactTrace(400, &zipf, 21);

  EngineConfig cfg;
  cfg.service_ticks = 2;
  double rate = 1.0;  // ops/tick, well past the hot node's capacity
  Engine ue(a.ov.get(), &a.members, cfg);
  serve::FixedArrivals ua(rate);
  Rng r1(7);
  EngineResult ur = ue.Run(ut, &ua, &r1);

  Engine ze(b.ov.get(), &b.members, cfg);
  serve::FixedArrivals za(rate);
  Rng r2(7);
  EngineResult zr = ze.Run(zt, &za, &r2);

  EXPECT_GT(zr.sojourn.Mean(), ur.sojourn.Mean());
  EXPECT_GT(zr.peak_queue_depth, ur.peak_queue_depth);
}

TEST(Engine, BoundedQueuesShedLoad) {
  Built a = Grow("baton", 40, 17);
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(300, &gen, 9);

  EngineConfig cfg;
  cfg.service_ticks = 4;
  cfg.max_queue = 2;
  Engine engine(a.ov.get(), &a.members, cfg);
  serve::FixedArrivals burst(4.0);  // far past capacity
  Rng rng(7);
  EngineResult res = engine.Run(trace, &burst, &rng);

  EXPECT_GT(res.dropped, 0u);
  EXPECT_EQ(res.completed + res.dropped, res.admitted);
  // A message is refused once `max_queue` are already waiting, so no node's
  // backlog can exceed the bound.
  EXPECT_LE(res.peak_queue_depth, 2u);
}

TEST(Engine, DeadlinesTimeOutUnderOverload) {
  Built a = Grow("baton", 40, 17);
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(300, &gen, 9);

  EngineConfig cfg;
  cfg.service_ticks = 4;
  cfg.timeout_ticks = 30;  // unbounded queues: sojourns grow past any deadline
  Engine engine(a.ov.get(), &a.members, cfg);
  serve::FixedArrivals burst(4.0);
  Rng rng(7);
  EngineResult res = engine.Run(trace, &burst, &rng);

  EXPECT_EQ(res.dropped, 0u);
  EXPECT_GT(res.timed_out, 0u);
  // Timed-out ops still completed (the deadline models client abandonment).
  EXPECT_EQ(res.completed, res.admitted);
  EXPECT_LE(res.timed_out, res.completed);
}

TEST(Engine, RestoresObserverChainAndFeedsIt) {
  // The engine splices itself over whatever observer is already attached;
  // the original must keep seeing every message during the run and be
  // re-attached afterwards.
  struct Counter : net::MessageObserver {
    void OnMessage(net::PeerId, net::PeerId, net::MsgType, uint64_t,
                   uint64_t) override { ++seen; }
    uint64_t seen = 0;
  };
  Built a = Grow("baton", 30, 19);
  Counter outer;
  a.ov->network()->AttachObserver(&outer);
  uint64_t before = outer.seen;

  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(50, &gen, 9);
  EngineConfig cfg;
  Engine engine(a.ov.get(), &a.members, cfg);
  Rng rng(7);
  EngineResult res = engine.RunClosedLoop(trace, &rng);

  EXPECT_EQ(a.ov->network()->observer(), &outer);
  EXPECT_EQ(outer.seen, before + TotalMessages(res.replay));  // chained through
}

TEST(Engine, ComposesWithAttachedSimKernel) {
  // With a latency model attached (the per-op critical-path machinery), the
  // engine must leave the network's clock alone -- and the per-op latency
  // aggregates must match what sequential Replay measures.
  Built ground = Grow("baton", 40, 23);
  Built served = Grow("baton", 40, 23);
  sim::Clock ground_clock, served_clock;
  sim::ConstantLatency lat(3);
  ground.ov->AttachLatency(&ground_clock, &lat, 77);
  served.ov->AttachLatency(&served_clock, &lat, 77);

  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(100, &gen, 9);

  Rng r1(7);
  workload::ReplayResult expected =
      workload::Replay(*ground.ov, trace, &r1, &ground.members, {});

  EngineConfig cfg;
  Engine engine(served.ov.get(), &served.members, cfg);
  Rng r2(7);
  EngineResult got = engine.RunClosedLoop(trace, &r2);

  ExpectAggregatesEqual(got.replay, expected);
  // The latency model kept measuring.
  EXPECT_GT(got.replay.of(OpType::kExact).latency_hist.sum(), 0u);
}

TEST(Engine, ServicesEveryMessageOnce) {
  Built a = Grow("baton", 30, 29);
  workload::UniformKeys gen(1, 100000);
  workload::Trace trace = ExactTrace(60, &gen, 9);

  EngineConfig cfg;
  Engine engine(a.ov.get(), &a.members, cfg);
  serve::PoissonArrivals arrivals(0.2, 31);
  Rng rng(7);
  EngineResult res = engine.Run(trace, &arrivals, &rng);

  EXPECT_EQ(res.completed, res.admitted);
  EXPECT_EQ(res.sojourn.count(), res.completed);
  // One service_ticks (= 1) occupancy per message the overlay counted.
  EXPECT_EQ(res.total_service_ticks, TotalMessages(res.replay));
}

/// At service_ticks = 0 every service completion lands on the tick its
/// delivery runs at, so the calendar takes events pushed onto the tick it
/// is taking. Nothing ever waits, and an op's sojourn is one tick of link
/// latency per message, however many ops overlap.
TEST(Engine, ZeroServiceTicksSojournIsOneTickPerMessage) {
  for (const std::string& name : overlay::RegisteredNames()) {
    SCOPED_TRACE(name);
    Built a = Grow(name, 40, 11);
    workload::Trace trace = MixedChurnTrace();

    EngineConfig cfg;
    cfg.service_ticks = 0;
    Engine engine(a.ov.get(), &a.members, cfg);
    serve::PoissonArrivals arrivals(3.0, 5);  // three ops per tick
    Rng rng(42);
    EngineResult res = engine.Run(trace, &arrivals, &rng);

    EXPECT_EQ(res.completed, res.admitted);
    obs::LogHistogram messages;
    for (const workload::OpAggregate& agg : res.replay.per_op) {
      messages.Merge(agg.messages_hist);
    }
    EXPECT_EQ(res.queue_wait.count(), messages.sum());
    EXPECT_EQ(res.queue_wait.max(), 0u);
    EXPECT_EQ(res.sojourn, messages);
  }
}

/// The engine's timeline against a direct model of its ordering contract:
/// one priority queue on (tick, sequence) that holds every arrival up front
/// -- so an arrival wins a tie -- and each continuation as it is scheduled,
/// serving the hop chains the same ops yield when applied one by one. Two
/// arrivals per tick on a skewed trace make ties at every tick and
/// backlogs far past the calendar's first ring; the second run bounds the
/// queues, so ops drop.
TEST(Engine, TimelineMatchesReferenceEventQueue) {
  struct Receivers : net::MessageObserver {
    void OnMessage(net::PeerId, net::PeerId to, net::MsgType, uint64_t,
                   uint64_t) override {
      hops.push_back(to);
    }
    std::vector<net::PeerId> hops;
  };
  struct Event {
    enum Kind { kArrive, kDeliver, kServiced };
    sim::Time at;
    uint64_t seq;
    size_t op;
    Kind kind;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  constexpr double kRate = 2.0;
  workload::ZipfKeys zipf(1, 100000000, 0.99);
  const workload::Trace trace = ExactTrace(600, &zipf, 21);

  for (uint64_t max_queue : {0u, 3u}) {
    SCOPED_TRACE(max_queue);
    Built ground = Grow("baton", 60, 13);
    Built served = Grow("baton", 60, 13);
    EngineConfig cfg;
    cfg.service_ticks = 3;
    cfg.max_queue = max_queue;
    cfg.timeout_ticks = 100;
    cfg.node_service_overrides = {{ground.members[1], 7}};

    // Every op's receivers, applied in trace order as admission does.
    Receivers seen;
    ground.ov->network()->AttachObserver(&seen);
    workload::ReplayResult books;
    std::vector<bool> admitted(trace.size());
    std::vector<size_t> chain_begin(trace.size());
    std::vector<size_t> chain_end(trace.size());
    Rng r1(7);
    for (size_t i = 0; i < trace.size(); ++i) {
      chain_begin[i] = seen.hops.size();
      admitted[i] = books.Record(
          trace[i], workload::ApplyOp(*ground.ov, trace[i], &r1,
                                      &ground.members),
          false);
      chain_end[i] = seen.hops.size();
    }
    ground.ov->network()->AttachObserver(nullptr);

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    uint64_t seq = 0;
    serve::FixedArrivals ref_arrivals(kRate);
    for (size_t i = 0; i < trace.size(); ++i) {
      queue.push({ref_arrivals.Next(), seq++, i, Event::kArrive});
    }
    NodeModel nodes(cfg.service_ticks);
    for (const auto& [node, ticks] : cfg.node_service_overrides) {
      nodes.SetNodeServiceTicks(node, ticks);
    }
    EngineResult want;
    std::vector<sim::Time> arrived(trace.size());
    std::vector<size_t> next(chain_begin);
    sim::Time now = 0;
    while (!queue.empty()) {
      const Event ev = queue.top();
      queue.pop();
      now = ev.at;
      const size_t i = ev.op;
      if (ev.kind == Event::kArrive) {
        if (!admitted[i]) continue;
        ++want.admitted;
        arrived[i] = now;
        if (next[i] < chain_end[i]) {
          queue.push({now + 1, seq++, i, Event::kDeliver});
          continue;
        }
      } else if (ev.kind == Event::kDeliver) {
        NodeModel::Admission adm =
            nodes.Admit(seen.hops[next[i]], now, cfg.max_queue);
        if (adm.accepted) {
          want.queue_wait.Add(adm.start - now);
          queue.push({adm.done, seq++, i, Event::kServiced});
        } else {
          ++want.dropped;
        }
        continue;
      } else if (++next[i] < chain_end[i]) {
        queue.push({now + 1, seq++, i, Event::kDeliver});
        continue;
      }
      ++want.completed;
      want.sojourn.Add(now - arrived[i]);
      want.completions.push_back(now);
      if (now - arrived[i] > cfg.timeout_ticks) ++want.timed_out;
    }

    Engine engine(served.ov.get(), &served.members, cfg);
    serve::FixedArrivals arrivals(kRate);
    Rng r2(7);
    EngineResult got = engine.Run(trace, &arrivals, &r2);

    EXPECT_EQ(got.admitted, want.admitted);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.timed_out, want.timed_out);
    EXPECT_EQ(got.makespan, now);
    EXPECT_EQ(got.completions, want.completions);
    EXPECT_EQ(got.sojourn, want.sojourn);
    EXPECT_EQ(got.queue_wait, want.queue_wait);
    EXPECT_EQ(got.peak_queue_depth, nodes.max_peak_depth());
    EXPECT_EQ(got.max_node_served, nodes.max_served());
    EXPECT_EQ(got.total_service_ticks, nodes.total_busy_ticks());
    if (max_queue == 0) {
      EXPECT_GT(got.peak_queue_depth * cfg.service_ticks, 500u);
    } else {
      EXPECT_GT(got.dropped, 0u);
    }
  }
}

}  // namespace
}  // namespace baton
