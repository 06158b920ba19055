// Unit tests for the discrete-event kernel and the message-counting network.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/latency.h"

namespace baton {
namespace {

// ---------- EventQueue ----------

TEST(EventQueue, RunsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(7, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  sim::EventQueue q;
  int fired = 0;
  q.ScheduleAt(1, [&] {
    ++fired;
    q.ScheduleAfter(5, [&] { ++fired; });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  sim::EventQueue q;
  int fired = 0;
  q.ScheduleAt(5, [&] { ++fired; });
  q.ScheduleAt(15, [&] { ++fired; });
  q.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockToDeadline) {
  // Regression: RunUntil used to leave now() at the last processed event,
  // so a subsequent ScheduleAfter(d) fired at last_event + d instead of
  // t_end + d.
  sim::EventQueue q;
  int fired = 0;
  q.ScheduleAt(5, [&] { ++fired; });
  q.RunUntil(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 10u);
  q.ScheduleAfter(3, [&] { ++fired; });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 13u);
}

TEST(EventQueue, RunUntilNeverMovesClockBackwards) {
  sim::EventQueue q;
  q.ScheduleAt(20, [] {});
  q.RunUntilIdle();
  EXPECT_EQ(q.now(), 20u);
  q.RunUntil(10);  // deadline in the past: nothing to run, clock stays
  EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueue, RunUntilOnEmptyQueueStillAdvances) {
  sim::EventQueue q;
  EXPECT_EQ(q.RunUntil(42), 0u);
  EXPECT_EQ(q.now(), 42u);
}

TEST(EventQueue, MaxEventsBudget) {
  sim::EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.ScheduleAt(static_cast<sim::Time>(i), [&] { ++fired; });
  EXPECT_EQ(q.RunUntilIdle(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ManyInterleavedChainsAreDeterministic) {
  // The serving-engine workload: many in-flight operation chains, each hop
  // rescheduling the next from inside its handler, all racing on one queue.
  // Two identical schedules must produce identical interleavings.
  auto run = [](int chains, int hops) {
    sim::EventQueue q;
    std::vector<std::pair<int, sim::Time>> log;
    std::function<void(int, int)> hop = [&](int chain, int remaining) {
      log.emplace_back(chain, q.now());
      if (remaining > 0) {
        // Stagger by chain id so chains repeatedly collide at equal ticks.
        q.ScheduleAfter(static_cast<sim::Time>(1 + chain % 3),
                        [&hop, chain, remaining] { hop(chain, remaining - 1); });
      }
    };
    for (int c = 0; c < chains; ++c) {
      q.ScheduleAt(static_cast<sim::Time>(c % 4),
                   [&hop, c, hops] { hop(c, hops); });
    }
    q.RunUntilIdle();
    return log;
  };
  auto a = run(25, 12);
  auto b = run(25, 12);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 25u * 13u);
  // Chronological, with same-tick events in schedule order.
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].second, a[i - 1].second);
}

TEST(EventQueue, SameTickOrderingAcrossInFlightChains) {
  // Events scheduled for the SAME tick from different handlers run in the
  // order they were scheduled, even through heap reshuffles.
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.ScheduleAt(5, [&q, &order, i] {
      // All of these land on tick 9 -- insertion order must hold.
      q.ScheduleAfter(4, [&order, i] { order.push_back(i); });
    });
  }
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, ScheduleAfterZeroFromHandlerRunsSameTick) {
  // A handler may schedule a continuation at the CURRENT tick; it runs
  // after every previously scheduled same-tick event, before time advances.
  sim::EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3, [&] {
    order.push_back(1);
    q.ScheduleAfter(0, [&] { order.push_back(3); });
  });
  q.ScheduleAt(3, [&] { order.push_back(2); });
  q.ScheduleAt(4, [&] { order.push_back(4); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 4u);
}

TEST(Latency, ConstantAndUniform) {
  Rng rng(1);
  sim::ConstantLatency c(5);
  EXPECT_EQ(c.Sample(&rng), 5u);
  sim::UniformLatency u(2, 4);
  for (int i = 0; i < 100; ++i) {
    sim::Time t = u.Sample(&rng);
    EXPECT_GE(t, 2u);
    EXPECT_LE(t, 4u);
  }
}

TEST(LatencyDeathTest, UniformRejectsInvertedBounds) {
  // Regression: hi < lo used to underflow hi - lo + 1 in Sample() and draw
  // from an astronomically large bound instead of failing fast.
  EXPECT_DEATH(sim::UniformLatency(5, 2), "inverted");
}

// ---------- Network ----------

TEST(Network, RegisterAndLiveness) {
  net::Network net;
  net::PeerId a = net.Register();
  net::PeerId b = net.Register();
  EXPECT_NE(a, b);
  EXPECT_TRUE(net.IsAlive(a));
  net.MarkDead(a);
  EXPECT_FALSE(net.IsAlive(a));
  EXPECT_EQ(net.num_alive(), 1u);
  net.MarkAlive(a);
  EXPECT_EQ(net.num_alive(), 2u);
}

TEST(Network, CountsByType) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  net.Count(a, b, net::MsgType::kExactQuery);
  net.Count(a, b, net::MsgType::kExactQuery);
  net.Count(b, a, net::MsgType::kInsert);
  EXPECT_EQ(net.total_messages(), 3u);
  EXPECT_EQ(net.MessagesOfType(net::MsgType::kExactQuery), 2u);
  EXPECT_EQ(net.MessagesOfType(net::MsgType::kInsert), 1u);
}

TEST(Network, SnapshotDeltas) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  auto s0 = net.Snapshot();
  net.Count(a, b, net::MsgType::kInsert);
  net.Count(a, b, net::MsgType::kDelete);
  auto s1 = net.Snapshot();
  EXPECT_EQ(net::Network::Delta(s0, s1), 2u);
  EXPECT_EQ(net::Network::DeltaOfType(s0, s1, net::MsgType::kInsert), 1u);
}

TEST(Network, PerPeerProcessedCounts) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  net.Count(a, b, net::MsgType::kExactQuery);
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.ProcessedBy(b, net::MsgCategory::kQuery), 1u);
  EXPECT_EQ(net.ProcessedBy(b, net::MsgCategory::kData), 1u);
  EXPECT_EQ(net.ProcessedBy(a, net::MsgCategory::kQuery), 0u);
  net.ResetPerPeerCounters();
  EXPECT_EQ(net.ProcessedBy(b, net::MsgCategory::kQuery), 0u);
  EXPECT_EQ(net.total_messages(), 2u);  // global totals survive
}

TEST(Network, DeadReceiverProcessesNothing) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  net.MarkDead(b);
  net.Count(a, b, net::MsgType::kExactQuery);
  EXPECT_EQ(net.total_messages(), 1u);  // the wasted message is still paid
  EXPECT_EQ(net.ProcessedBy(b, net::MsgCategory::kQuery), 0u);
}

TEST(Network, DeferQueuesAndFlushes) {
  net::Network net;
  int applied = 0;
  net.Apply([&] { ++applied; });
  EXPECT_EQ(applied, 1);  // immediate when not deferring

  net.SetDeferUpdates(true);
  net.Apply([&] { ++applied; });
  net.Apply([&] { ++applied; });
  EXPECT_EQ(applied, 1);
  EXPECT_EQ(net.deferred_pending(), 2u);
  EXPECT_EQ(net.FlushDeferred(), 2u);
  EXPECT_EQ(applied, 3);
}

TEST(Network, FlushRunsInFifoOrder) {
  net::Network net;
  net.SetDeferUpdates(true);
  std::vector<int> order;
  net.Apply([&] { order.push_back(1); });
  net.Apply([&] { order.push_back(2); });
  net.FlushDeferred();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, FlushRunsFollowOnUpdates) {
  net::Network net;
  net.SetDeferUpdates(true);
  int applied = 0;
  net.Apply([&] {
    ++applied;
    net.Apply([&] { ++applied; });  // queued during flush
  });
  EXPECT_EQ(net.FlushDeferred(), 2u);
  EXPECT_EQ(applied, 2);
}

TEST(Network, CounterReportListsTypes) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  net.Count(a, b, net::MsgType::kJoinForward);
  std::string report = net.CounterReport();
  EXPECT_NE(report.find("JoinForward"), std::string::npos);
}

// ---------- Network + sim attachment (critical-path frontier) ----------

TEST(NetworkSim, SequentialHopsAdd) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(2);
  net.AttachSim(&q, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kExactQuery);  // b available at 2
  net.Count(b, c, net::MsgType::kExactQuery);  // departs 2, arrives 4
  EXPECT_EQ(net.EndOpWindow(), 4u);
  EXPECT_EQ(q.now(), 4u);  // the queue clock is the op's completion time
  EXPECT_EQ(net.sim_delivered(), 2u);
  EXPECT_EQ(net.total_messages(), 2u);  // counters are unaffected
}

TEST(NetworkSim, ParallelFanOutTakesMaxNotSum) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register(),
              d = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(3);
  net.AttachSim(&q, &lat, 1);

  net.BeginOpWindow();
  // One sender, three branches: all departures share a's frontier (0), so
  // the critical path is one latency, not three (the naive per-message sum
  // would be 9).
  net.Count(a, b, net::MsgType::kExactQuery);
  net.Count(a, c, net::MsgType::kExactQuery);
  net.Count(a, d, net::MsgType::kExactQuery);
  EXPECT_EQ(net.EndOpWindow(), 3u);
}

TEST(NetworkSim, WindowsResetTheFrontierAndAdvanceTheClock) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(5);
  net.AttachSim(&q, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 5u);

  // A fresh window starts from a clean frontier (b is immediately
  // available again) but the virtual clock keeps accumulating.
  net.BeginOpWindow();
  net.Count(b, a, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 5u);
  EXPECT_EQ(q.now(), 10u);
}

TEST(NetworkSim, StrayCountsMoveTheClockAtTheNextWindowEnd) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(3);
  net.AttachSim(&q, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 3u);
  EXPECT_EQ(q.now(), 3u);

  // Outside any window: a two-hop relay anchored at the clock (3), landing
  // at 9. The clock does not move until a window closes.
  net.Count(b, a, net::MsgType::kInsert);
  net.Count(a, c, net::MsgType::kInsert);
  EXPECT_EQ(q.now(), 3u);

  // The next operation completes at 6, but the stray relay arrives later;
  // the window still reports only its own critical path.
  net.BeginOpWindow();
  net.Count(b, c, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 3u);
  EXPECT_EQ(q.now(), 9u);
  EXPECT_EQ(net.sim_delivered(), 4u);
}

TEST(NetworkSim, ForeignEventsRunAndTheClockTakesTheLaterEnd) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(5);
  net.AttachSim(&q, &lat, 1);
  std::vector<sim::Time> fired;

  // A foreign event past the operation's completion: the clock ends on it.
  q.ScheduleAt(20, [&] { fired.push_back(q.now()); });
  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kExactQuery);
  EXPECT_EQ(net.EndOpWindow(), 5u);
  EXPECT_EQ(fired, (std::vector<sim::Time>{20}));
  EXPECT_EQ(q.now(), 20u);

  // A foreign event before the completion: it runs at its own time and the
  // clock ends on the operation.
  q.ScheduleAt(21, [&] { fired.push_back(q.now()); });
  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kExactQuery);
  net.Count(b, a, net::MsgType::kExactQuery);
  EXPECT_EQ(net.EndOpWindow(), 10u);
  EXPECT_EQ(fired, (std::vector<sim::Time>{20, 21}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(NetworkSim, CountsQueueNoEvents) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  sim::EventQueue q;
  sim::ConstantLatency lat(2);
  net.AttachSim(&q, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kExactQuery);
  EXPECT_EQ(q.pending(), 0u);
  net.Count(b, a, net::MsgType::kExactQuery);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(net.EndOpWindow(), 4u);
  EXPECT_EQ(q.processed(), 0u);
  EXPECT_EQ(net.sim_delivered(), 2u);
}

TEST(NetworkSim, DetachedWindowsReportZero) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  EXPECT_FALSE(net.sim_attached());
  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 0u);
  EXPECT_EQ(net.total_messages(), 1u);
}

TEST(NetworkSim, UniformSamplingIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    net::Network net;
    net::PeerId a = net.Register(), b = net.Register();
    sim::EventQueue q;
    sim::UniformLatency lat(1, 100);
    net.AttachSim(&q, &lat, seed);
    net.BeginOpWindow();
    for (int i = 0; i < 10; ++i) net.Count(a, b, net::MsgType::kInsert);
    return net.EndOpWindow();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // virtually certain over 10 draws in [1,100]
}

TEST(MsgType, EveryTypeHasNameAndCategory) {
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    auto t = static_cast<net::MsgType>(i);
    EXPECT_STRNE(net::MsgTypeName(t), "Unknown") << i;
    (void)net::CategoryOf(t);  // must not crash
  }
}

}  // namespace
}  // namespace baton
