// Network dynamics (Fig 8(i) machinery): deferred update propagation, stale
// routing state, fault-tolerant detours, and convergence after the flush.
#include <gtest/gtest.h>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

using fixtures::Overlay;

TEST(Dynamics, DeferredJoinLeavesStaleCachesUntilFlush) {
  Overlay o(1);
  Rng rng(1);
  o.Grow(32, &rng);
  o.overlay->SetDeferUpdates(true);
  auto joined = o.overlay->Join(o.members[5]);
  ASSERT_TRUE(joined.ok());
  EXPECT_GT(o.overlay->deferred_pending(), 0u)
      << "third-party cache updates must be queued";
  o.overlay->FlushDeferred();
  o.overlay->SetDeferUpdates(false);
  o.members.push_back(joined.value());
  o.overlay->CheckInvariants();
}

TEST(Dynamics, QueriesSucceedDuringChurnWindow) {
  Overlay o(2);
  Rng rng(2);
  o.Grow(200, &rng);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  o.overlay->SetDeferUpdates(true);
  // Apply a churn batch with notifications in flight.
  for (int i = 0; i < 30; ++i) {
    if (rng.NextBool(0.5)) {
      auto joined =
          o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
      if (joined.ok()) o.members.push_back(joined.value());
    } else {
      size_t idx = rng.NextBelow(o.members.size());
      if (o.overlay->Leave(o.members[idx]).ok()) {
        o.members.erase(o.members.begin() + static_cast<long>(idx));
      }
    }
  }
  int ok_count = 0;
  const int kQ = 300;
  for (int i = 0; i < kQ; ++i) {
    auto r = o.overlay->ExactSearch(
        o.members[rng.NextBelow(o.members.size())],
        rng.UniformInt(1, 999999999));
    if (r.ok()) ++ok_count;
  }
  // Most queries must still route (the paper's point is the EXTRA cost, not
  // unavailability); with 15% of the network in flight, some routes starve.
  EXPECT_GT(ok_count, kQ / 2);
  o.overlay->FlushDeferred();
  o.overlay->SetDeferUpdates(false);
  o.overlay->RepairAllLinks();  // the stabilisation pass converges the rest
  o.overlay->CheckInvariants();
  for (int i = 0; i < 100; ++i) {
    auto r = o.overlay->ExactSearch(
        o.members[rng.NextBelow(o.members.size())],
        rng.UniformInt(1, 999999999));
    EXPECT_TRUE(r.ok()) << "after repair every query must route";
  }
}

TEST(Dynamics, ChurnWindowCostsExtraMessages) {
  auto run = [](int churn) {
    Overlay o(3);
    Rng rng(3);
    o.Grow(300, &rng);
    o.overlay->SetDeferUpdates(true);
    for (int i = 0; i < churn; ++i) {
      size_t idx = rng.NextBelow(o.members.size());
      if (o.overlay->Leave(o.members[idx]).ok()) {
        o.members.erase(o.members.begin() + static_cast<long>(idx));
      }
    }
    auto before = o.net.Snapshot();
    int done = 0;
    double msgs = 0;
    for (int i = 0; i < 400; ++i) {
      auto r = o.overlay->ExactSearch(
          o.members[rng.NextBelow(o.members.size())],
          rng.UniformInt(1, 999999999));
      if (r.ok()) ++done;
    }
    msgs = static_cast<double>(
        net::Network::Delta(before, o.net.Snapshot()));
    o.overlay->FlushDeferred();
    return msgs / std::max(done, 1);
  };
  double calm = run(0);
  double stormy = run(60);
  EXPECT_GT(stormy, calm) << "stale state must cost extra messages";
}

TEST(Dynamics, ApplyRefUpdateDropsMismatchedSlots) {
  // A deferred table update whose slot no longer matches (the holder moved)
  // must be dropped, not misapplied. Exercise via a join whose reverse
  // updates flush after the target left.
  Overlay o(4);
  Rng rng(4);
  o.Grow(64, &rng);
  o.overlay->SetDeferUpdates(true);
  auto joined = o.overlay->Join(o.members[10]);
  ASSERT_TRUE(joined.ok());
  o.members.push_back(joined.value());
  // Remove a node that was referenced by in-flight updates.
  for (int i = 0; i < 10; ++i) {
    size_t idx = rng.NextBelow(o.members.size());
    if (o.overlay->Leave(o.members[idx]).ok()) {
      o.members.erase(o.members.begin() + static_cast<long>(idx));
    }
  }
  // Flushing stale updates must not corrupt anyone (defensive apply).
  o.overlay->FlushDeferred();
  o.overlay->SetDeferUpdates(false);
  o.overlay->RepairAllLinks();
  // Churn keeps the tree balanced, and the repair leaves every cached link
  // consistent, so all queries must work.
  o.overlay->CheckInvariants();
  int ok_count = 0;
  for (int i = 0; i < 100; ++i) {
    auto r = o.overlay->ExactSearch(
        o.members[rng.NextBelow(o.members.size())],
        rng.UniformInt(1, 999999999));
    if (r.ok()) ++ok_count;
  }
  EXPECT_EQ(ok_count, 100);
}

TEST(Dynamics, FlushAppliesUpdatesInSendOrder) {
  // A later update to the same link slot carries the newer value, so the
  // queue must apply in send order: applied in reverse, a stale ref wins
  // and the invariant checker catches it.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Overlay o(seed);
    Rng rng(seed);
    o.Grow(32, &rng);
    o.overlay->SetDeferUpdates(true);
    for (int i = 0; i < 2; ++i) {
      auto joined =
          o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
      ASSERT_TRUE(joined.ok()) << "seed " << seed;
      o.members.push_back(joined.value());
    }
    size_t pending = o.overlay->deferred_pending();
    EXPECT_EQ(o.overlay->FlushDeferred(), pending) << "seed " << seed;
    EXPECT_EQ(o.overlay->deferred_pending(), 0u) << "seed " << seed;
    o.overlay->SetDeferUpdates(false);
    o.overlay->CheckInvariants();
  }
}

TEST(Dynamics, RepeatedChurnRoundsConverge) {
  Overlay o(5);
  Rng rng(5);
  o.Grow(100, &rng);
  for (int round = 0; round < 10; ++round) {
    o.overlay->SetDeferUpdates(true);
    for (int i = 0; i < 10; ++i) {
      if (rng.NextBool(0.5)) {
        auto joined =
            o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
        if (joined.ok()) o.members.push_back(joined.value());
      } else if (o.overlay->size() > 8) {
        size_t idx = rng.NextBelow(o.members.size());
        if (o.overlay->Leave(o.members[idx]).ok()) {
          o.members.erase(o.members.begin() + static_cast<long>(idx));
        }
      }
    }
    o.overlay->FlushDeferred();
    o.overlay->SetDeferUpdates(false);
    o.overlay->RepairAllLinks();
    o.overlay->CheckInvariants();
    // After each quiet period, queries route normally from everywhere.
    for (int i = 0; i < 50; ++i) {
      auto r = o.overlay->ExactSearch(
          o.members[rng.NextBelow(o.members.size())],
          rng.UniformInt(1, 999999999));
      EXPECT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace baton
