// Unit tests for the sim clock, latency models and the message-counting
// network.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/network.h"
#include "sim/clock.h"
#include "sim/latency.h"

namespace baton {
namespace {

// ---------- Clock ----------

TEST(Clock, AdvancesButNeverMovesBackwards) {
  sim::Clock c;
  EXPECT_EQ(c.now(), 0u);
  c.AdvanceTo(42);
  EXPECT_EQ(c.now(), 42u);
  c.AdvanceTo(10);  // a time in the past leaves the clock where it is
  EXPECT_EQ(c.now(), 42u);
  c.AdvanceTo(42);
  EXPECT_EQ(c.now(), 42u);
  c.AdvanceTo(43);
  EXPECT_EQ(c.now(), 43u);
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

TEST(Network, DeadReceiverProcessesNothing) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register();
  net.MarkDead(b);
  net.Count(a, b, net::MsgType::kExactQuery);
  EXPECT_EQ(net.total_messages(), 1u);  // the wasted message is still paid
}

// ---------- Network + sim attachment (critical-path frontier) ----------

TEST(NetworkSim, SequentialHopsAdd) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register();
  sim::Clock clock;
  sim::ConstantLatency lat(2);
  net.AttachSim(&clock, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kExactQuery);  // b available at 2
  net.Count(b, c, net::MsgType::kExactQuery);  // departs 2, arrives 4
  EXPECT_EQ(net.EndOpWindow(), 4u);
  EXPECT_EQ(clock.now(), 4u);  // the clock is the op's completion time
  EXPECT_EQ(net.sim_delivered(), 2u);
  EXPECT_EQ(net.total_messages(), 2u);  // counters are unaffected
}

TEST(NetworkSim, ParallelFanOutTakesMaxNotSum) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register(),
              d = net.Register();
  sim::Clock clock;
  sim::ConstantLatency lat(3);
  net.AttachSim(&clock, &lat, 1);

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
  sim::Clock clock;
  sim::ConstantLatency lat(5);
  net.AttachSim(&clock, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 5u);

  // A fresh window starts from a clean frontier (b is immediately
  // available again) but the virtual clock keeps accumulating.
  net.BeginOpWindow();
  net.Count(b, a, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 5u);
  EXPECT_EQ(clock.now(), 10u);
}

TEST(NetworkSim, StrayCountsMoveTheClockAtTheNextWindowEnd) {
  net::Network net;
  net::PeerId a = net.Register(), b = net.Register(), c = net.Register();
  sim::Clock clock;
  sim::ConstantLatency lat(3);
  net.AttachSim(&clock, &lat, 1);

  net.BeginOpWindow();
  net.Count(a, b, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 3u);
  EXPECT_EQ(clock.now(), 3u);

  // Outside any window: a two-hop relay anchored at the clock (3), landing
  // at 9. The clock does not move until a window closes.
  net.Count(b, a, net::MsgType::kInsert);
  net.Count(a, c, net::MsgType::kInsert);
  EXPECT_EQ(clock.now(), 3u);

  // The next operation completes at 6, but the stray relay arrives later;
  // the window still reports only its own critical path.
  net.BeginOpWindow();
  net.Count(b, c, net::MsgType::kInsert);
  EXPECT_EQ(net.EndOpWindow(), 3u);
  EXPECT_EQ(clock.now(), 9u);
  EXPECT_EQ(net.sim_delivered(), 4u);
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
    sim::Clock clock;
    sim::UniformLatency lat(1, 100);
    net.AttachSim(&clock, &lat, seed);
    net.BeginOpWindow();
    for (int i = 0; i < 10; ++i) net.Count(a, b, net::MsgType::kInsert);
    return net.EndOpWindow();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // virtually certain over 10 draws in [1,100]
}

TEST(MsgType, EveryTypeHasNameAndCategory) {
  std::set<std::string> names;
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    auto t = static_cast<net::MsgType>(i);
    EXPECT_STRNE(net::MsgTypeName(t), "Unknown") << i;
    EXPECT_TRUE(names.insert(net::MsgTypeName(t)).second)
        << "duplicate name " << net::MsgTypeName(t);
    // kOther is the bucket of an unknown type; every figure column would
    // silently miss a real type billed to it.
    EXPECT_NE(net::CategoryOf(t), net::MsgCategory::kOther)
        << net::MsgTypeName(t);
  }
  EXPECT_STREQ(net::MsgTypeName(net::MsgType::kNumTypes), "Unknown");
  EXPECT_EQ(net::CategoryOf(net::MsgType::kNumTypes), net::MsgCategory::kOther);

  std::set<std::string> categories;
  for (int c = 0; c < net::kNumMsgCategories; ++c) {
    categories.insert(net::MsgCategoryName(static_cast<net::MsgCategory>(c)));
  }
  EXPECT_EQ(categories.size(), static_cast<size_t>(net::kNumMsgCategories));
}

}  // namespace
}  // namespace baton
