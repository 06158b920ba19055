// Replication subsystem (src/replication/): replica placement, incremental
// push, restore-on-failure durability, anti-entropy repair, and the r = 0
// regression guarantee (replication off must not perturb the paper's message
// accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

struct Overlay : fixtures::Overlay {
  using fixtures::Overlay::Overlay;
  std::vector<Key> InsertUniform(size_t count, Rng* rng) {
    std::vector<Key> keys;
    for (size_t i = 0; i < count; ++i) {
      Key k = rng->UniformInt(1, 999999999);
      EXPECT_TRUE(
          overlay->Insert(members[rng->NextBelow(members.size())], k).ok());
      keys.push_back(k);
    }
    return keys;
  }
};

BatonConfig WithReplication(int r) {
  BatonConfig cfg;
  cfg.replication.factor = r;
  return cfg;
}

uint64_t ReplicaMessages(const net::Network& net) {
  // Derived from the category mapping so new replica message types are
  // counted automatically.
  uint64_t sum = 0;
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    auto t = static_cast<net::MsgType>(i);
    if (net::CategoryOf(t) == net::MsgCategory::kReplication) {
      sum += net.MessagesOfType(t);
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Placement and incremental push.
// ---------------------------------------------------------------------------

TEST(Replication, EveryNodeGetsRHolders) {
  Overlay o(1, WithReplication(2));
  Rng rng(1);
  o.Grow(64, &rng);
  // A node that joined a sparse neighbourhood may start under-replicated;
  // one anti-entropy pass recruits the missing holders.
  o.overlay->RepairReplicas();
  for (PeerId m : o.members) {
    EXPECT_EQ(o.overlay->replication_manager().replica_count(m), 2u)
        << "node " << m << " under-replicated";
    for (PeerId h : o.overlay->replication_manager().HoldersOf(m)) {
      EXPECT_NE(h, m) << "a node must not hold its own replica";
      EXPECT_TRUE(o.net.IsAlive(h));
    }
  }
}

TEST(Replication, EagerPushKeepsReplicasExact) {
  Overlay o(2, WithReplication(2));
  Rng rng(2);
  o.Grow(32, &rng);
  o.InsertUniform(640, &rng);
  // CheckInvariants includes the replica-consistency check.
  o.overlay->CheckInvariants();
  const auto& mgr = o.overlay->replication_manager();
  for (PeerId m : o.members) {
    const KeyBag& primary = o.overlay->node(m).data;
    for (PeerId h : mgr.HoldersOf(m)) {
      const KeyBag* copy = mgr.ReplicaAt(m, h);
      ASSERT_NE(copy, nullptr);
      EXPECT_EQ(copy->SortedKeys(), primary.SortedKeys());
    }
  }
  EXPECT_EQ(mgr.total_replica_keys(), 2 * o.overlay->total_keys());
}

TEST(Replication, DeletesPropagateToReplicas) {
  Overlay o(3, WithReplication(1));
  Rng rng(3);
  o.Grow(16, &rng);
  std::vector<Key> keys = o.InsertUniform(200, &rng);
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(
        o.overlay->Delete(o.members[rng.NextBelow(o.members.size())], keys[i])
            .ok());
  }
  o.overlay->CheckInvariants();
  EXPECT_EQ(o.overlay->replication_manager().total_replica_keys(),
            o.overlay->total_keys());
}

TEST(Replication, HoldersRehomedAfterGracefulDeparture) {
  Overlay o(4, WithReplication(2));
  Rng rng(4);
  o.Grow(48, &rng);
  o.InsertUniform(480, &rng);
  for (int i = 0; i < 12; ++i) {
    PeerId leaver = o.members[rng.NextBelow(o.members.size())];
    if (!o.overlay->Leave(leaver).ok()) continue;
    o.RemoveMember(leaver);
  }
  o.overlay->CheckInvariants();
  for (PeerId m : o.members) {
    EXPECT_EQ(o.overlay->replication_manager().replica_count(m), 2u);
    for (PeerId h : o.overlay->replication_manager().HoldersOf(m)) {
      EXPECT_TRUE(o.net.IsAlive(h)) << "stale dead holder survived departure";
    }
  }
}

// ---------------------------------------------------------------------------
// Durability: failures restore keys from replicas.
// ---------------------------------------------------------------------------

TEST(Replication, SingleFailureLosesNothing) {
  Overlay o(5, WithReplication(1));
  Rng rng(5);
  o.Grow(80, &rng);
  o.InsertUniform(800, &rng);
  uint64_t before = o.overlay->total_keys();

  PeerId victim = o.members[17];
  size_t victim_keys = o.overlay->node(victim).data.size();
  ASSERT_GT(victim_keys, 0u);
  o.overlay->Fail(victim);
  ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
  o.RemoveMember(victim);

  EXPECT_EQ(o.overlay->total_keys(), before);
  EXPECT_EQ(o.overlay->lost_keys(), 0u);
  EXPECT_EQ(o.overlay->recovered_keys(), victim_keys);
  EXPECT_GE(o.net.MessagesOfType(net::MsgType::kReplicaRestore), 1u);
  EXPECT_GE(o.net.MessagesOfType(net::MsgType::kReplicaRestoreReply), 1u);
  o.overlay->CheckInvariants();
}

// Property: after k random failures with r > k, no key is lost and every key
// remains findable. k failures can kill at most k of a victim's r holders,
// so a live replica always survives.
class ZeroLossProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZeroLossProperty, KRandomFailuresWithRGreaterThanK) {
  int k = GetParam();
  int r = k + 1;
  Overlay o(100 + static_cast<uint64_t>(k), WithReplication(r));
  Rng rng(200 + static_cast<uint64_t>(k));
  o.Grow(150, &rng);
  std::vector<Key> inserted = o.InsertUniform(1500, &rng);
  uint64_t before = o.overlay->total_keys();

  // k simultaneous abrupt failures.
  std::vector<PeerId> pool = o.members;
  rng.Shuffle(&pool);
  std::vector<PeerId> victims(pool.begin(), pool.begin() + k);
  for (PeerId v : victims) o.overlay->Fail(v);
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  for (PeerId v : victims) o.RemoveMember(v);

  EXPECT_EQ(o.overlay->lost_keys(), 0u) << "r > k must guarantee zero loss";
  EXPECT_EQ(o.overlay->total_keys(), before);
  o.overlay->CheckInvariants();

  // Every key inserted before the failures is still findable.
  std::set<Key> unique(inserted.begin(), inserted.end());
  for (Key key : unique) {
    auto res = o.overlay->ExactSearch(o.members[0], key);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.value().found) << "key " << key << " vanished";
  }
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, ZeroLossProperty,
                         ::testing::Values(1, 2, 3));

TEST(Replication, ChildRecoveredWhileParentStillDeadLosesNothing) {
  // Regression: the child's recovery hands its restored keys to its (dead)
  // parent; the parent's replicas must be synced on its behalf, or the
  // parent's own later recovery would restore a stale copy and re-lose them.
  Overlay o(1, WithReplication(2));
  Rng rng(1);
  o.Grow(48, &rng);
  o.InsertUniform(480, &rng);
  uint64_t before = o.overlay->total_keys();

  // Pick a leaf that (a) is safely removable, so its recovery takes the
  // direct handover-to-parent path, and (b) has an adjacent other than its
  // parent, so a live initiator exists while the parent is down.
  PeerId leaf = kNullPeer, parent = kNullPeer;
  for (PeerId m : o.members) {
    const BatonNode& n = o.overlay->node(m);
    if (!n.IsLeaf() || !n.parent.valid()) continue;
    bool removable = true;
    for (bool left : {true, false}) {
      for (int i = 0; i < n.TableSize(left); ++i) {
        if (o.overlay->TableEntry(m, left, i).HasChild()) removable = false;
      }
    }
    if (!removable) continue;
    bool live_initiator =
        (n.left_adj.valid() && n.left_adj.peer != n.parent.peer) ||
        (n.right_adj.valid() && n.right_adj.peer != n.parent.peer);
    if (!live_initiator) continue;
    leaf = m;
    parent = n.parent.peer;
    break;
  }
  ASSERT_NE(leaf, kNullPeer);
  o.overlay->Fail(parent);
  o.overlay->Fail(leaf);
  // Recover the child first: an adjacent initiates, the restored keys are
  // absorbed into the still-dead parent's range.
  ASSERT_TRUE(o.overlay->RecoverFailure(leaf).ok());
  o.RemoveMember(leaf);
  o.overlay->CheckInvariants();  // the dead parent's replicas must match

  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  o.RemoveMember(parent);
  EXPECT_EQ(o.overlay->lost_keys(), 0u)
      << "keys recovered into a dead parent were re-lost";
  EXPECT_EQ(o.overlay->total_keys(), before);
  o.overlay->CheckInvariants();
}

TEST(Replication, ChurnWithInterleavedFailuresLosesNothing) {
  Overlay o(6, WithReplication(2));
  Rng rng(6);
  o.Grow(120, &rng);
  o.InsertUniform(1200, &rng);
  uint64_t inserted = o.overlay->total_keys();
  uint64_t added = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 4; ++i) {
      auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
      ASSERT_TRUE(joined.ok());
      o.members.push_back(joined.value());
    }
    for (int i = 0; i < 4; ++i) {
      PeerId leaver = o.members[rng.NextBelow(o.members.size())];
      if (o.overlay->Leave(leaver).ok()) o.RemoveMember(leaver);
    }
    PeerId victim = o.members[rng.NextBelow(o.members.size())];
    o.overlay->Fail(victim);
    ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
    o.RemoveMember(victim);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(o.overlay
                      ->Insert(o.members[rng.NextBelow(o.members.size())],
                               rng.UniformInt(1, 999999999))
                      .ok());
      ++added;
    }
    o.overlay->RepairReplicas();
  }
  EXPECT_EQ(o.overlay->lost_keys(), 0u);
  EXPECT_EQ(o.overlay->total_keys(), inserted + added);
  o.overlay->CheckInvariants();
}

TEST(Replication, InsertsDuringHolderOutageRecruitNewHolder) {
  // Regression: with r=1, a primary whose sole holder is down must recruit a
  // live replacement on its next insert -- otherwise every key inserted in
  // the outage window (and the whole bag, if the primary fails before the
  // holder recovers) is unprotected.
  Overlay o(12, WithReplication(1));
  Rng rng(12);
  o.Grow(60, &rng);
  o.InsertUniform(600, &rng);
  const auto& mgr = o.overlay->replication_manager();
  // Pick a pair whose failures are independent: the holder's own replica
  // must not sit on the primary, or failing both is a k=2 > r=1 scenario
  // where loss is legitimate.
  PeerId primary = kNullPeer, holder = kNullPeer;
  for (PeerId m : o.members) {
    auto hs = mgr.HoldersOf(m);
    if (hs.size() != 1) continue;
    auto holder_hs = mgr.HoldersOf(hs[0]);
    if (holder_hs.size() == 1 && holder_hs[0] == m) continue;
    primary = m;
    holder = hs[0];
    break;
  }
  ASSERT_NE(primary, kNullPeer);
  uint64_t before = o.overlay->total_keys();

  o.overlay->Fail(holder);
  ASSERT_EQ(mgr.live_replica_count(primary), 0u);
  // Inserts into the primary's range while its holder is down.
  Range range = o.overlay->node(primary).range;
  auto origin = [&]() {
    PeerId p;
    do {
      p = o.members[rng.NextBelow(o.members.size())];
    } while (!o.net.IsAlive(p));
    return p;
  };
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        o.overlay->Insert(origin(), rng.UniformInt(range.lo, range.hi - 1))
            .ok());
  }
  EXPECT_GE(mgr.live_replica_count(primary), 1u)
      << "insert must have recruited a live replacement holder";

  // The primary fails while its original holder is still down: the
  // replacement holder must cover the full bag, outage-window keys included.
  o.overlay->Fail(primary);
  ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
  o.RemoveMember(primary);
  o.RemoveMember(holder);
  EXPECT_EQ(o.overlay->lost_keys(), 0u);
  EXPECT_EQ(o.overlay->total_keys(), before + 10);
  o.overlay->CheckInvariants();
}

TEST(Replication, HolderLeavingWhilePrimaryDeadHandsOffReplica) {
  // Regression: with r=1, the sole holder of a dead (unrecovered) primary
  // departs gracefully before recovery runs. The departing holder must hand
  // its copy -- the only surviving one -- to a fresh holder, or the
  // primary's later recovery has nothing to restore from.
  Overlay o(14, WithReplication(1));
  Rng rng(14);
  o.Grow(60, &rng);
  o.InsertUniform(600, &rng);
  uint64_t before = o.overlay->total_keys();
  const auto& mgr = o.overlay->replication_manager();

  // Try (primary, holder) pairs until the holder's graceful Leave succeeds
  // while the primary is down (a Leave near the failure can legitimately be
  // refused and retried; the test needs one that goes through).
  bool exercised = false;
  for (PeerId primary : std::vector<PeerId>(o.members)) {
    auto hs = mgr.HoldersOf(primary);
    if (hs.size() != 1) continue;
    PeerId holder = hs[0];
    size_t primary_keys = o.overlay->node(primary).data.size();
    if (primary_keys == 0) continue;
    o.overlay->Fail(primary);
    if (!o.overlay->Leave(holder).ok()) {
      // Undo and try another pair: recover the primary before moving on.
      EXPECT_TRUE(o.overlay->RecoverAllFailures().ok());
      o.RemoveMember(primary);
      continue;
    }
    o.RemoveMember(holder);
    ASSERT_TRUE(o.overlay->RecoverAllFailures().ok());
    o.RemoveMember(primary);
    exercised = true;
    break;
  }
  ASSERT_TRUE(exercised) << "no pair exercised the hand-off path";
  EXPECT_EQ(o.overlay->lost_keys(), 0u)
      << "the departing holder must hand off the only surviving copy";
  EXPECT_EQ(o.overlay->total_keys(), before);
  o.overlay->CheckInvariants();
}

// ---------------------------------------------------------------------------
// Anti-entropy.
// ---------------------------------------------------------------------------

TEST(Replication, LazyModeGoesStaleAndAntiEntropyHeals) {
  BatonConfig cfg = WithReplication(2);
  cfg.replication.eager_push = false;  // mutations leave replicas stale
  Overlay o(7, cfg);
  Rng rng(7);
  o.Grow(40, &rng);
  o.InsertUniform(400, &rng);  // replicas now lag their primaries

  auto stats = o.overlay->RepairReplicas();
  EXPECT_GT(stats.probed, 0u);
  EXPECT_GT(stats.healed, 0u) << "stale replicas must be detected";
  // After healing, every replica is exact again.
  o.overlay->CheckInvariants();
  const auto& mgr = o.overlay->replication_manager();
  for (PeerId m : o.members) {
    for (PeerId h : mgr.HoldersOf(m)) {
      EXPECT_EQ(mgr.ReplicaAt(m, h)->SortedKeys(),
                o.overlay->node(m).data.SortedKeys());
    }
  }
  // A second pass finds nothing to heal.
  EXPECT_EQ(o.overlay->RepairReplicas().healed, 0u);
}

TEST(Replication, LazyModeLosesUnsyncedKeysOnFailure) {
  BatonConfig cfg = WithReplication(1);
  cfg.replication.eager_push = false;
  Overlay o(8, cfg);
  Rng rng(8);
  o.Grow(30, &rng);
  o.InsertUniform(300, &rng);
  o.overlay->RepairReplicas();  // checkpoint: replicas now exact

  // New inserts after the checkpoint are not replicated in lazy mode.
  PeerId victim = o.members[11];
  size_t synced = o.overlay->node(victim).data.size();
  Range range = o.overlay->node(victim).range;
  size_t fresh = 0;
  for (int i = 0; i < 2000 && fresh < 5; ++i) {
    Key k = rng.UniformInt(range.lo, range.hi - 1);
    if (!range.Contains(k)) continue;
    ASSERT_TRUE(o.overlay->Insert(o.members[0], k).ok());
    ++fresh;
  }
  ASSERT_EQ(o.overlay->node(victim).data.size(), synced + fresh);

  o.overlay->Fail(victim);
  ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
  o.RemoveMember(victim);
  EXPECT_EQ(o.overlay->lost_keys(), fresh)
      << "exactly the unsynced keys are lost";
  EXPECT_EQ(o.overlay->recovered_keys(), synced);
  o.overlay->CheckInvariants();
}

// ---------------------------------------------------------------------------
// Satellite: lost-key accounting with replication disabled.
// ---------------------------------------------------------------------------

TEST(Replication, LostKeysTrackedWithoutReplication) {
  Overlay o(9);  // default config: r = 0
  Rng rng(9);
  o.Grow(60, &rng);
  o.InsertUniform(600, &rng);
  uint64_t before = o.overlay->total_keys();

  PeerId victim = o.members[23];
  size_t victim_keys = o.overlay->node(victim).data.size();
  o.overlay->Fail(victim);
  ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
  o.RemoveMember(victim);

  EXPECT_EQ(o.overlay->lost_keys(), victim_keys)
      << "silent key loss must be accounted";
  EXPECT_EQ(o.overlay->recovered_keys(), 0u);
  EXPECT_EQ(o.overlay->total_keys(), before - victim_keys);
}

// ---------------------------------------------------------------------------
// Regression: r = 0 must reproduce the pre-replication message accounting.
// ---------------------------------------------------------------------------

// Runs one deterministic churn-and-recovery scenario and returns the final
// counter snapshot.
net::CounterSnapshot RunRecoveryScenario(const BatonConfig& cfg,
                                         uint64_t* lost_out = nullptr) {
  Overlay o(77, cfg);
  Rng rng(77);
  // Deterministic, identical op sequence regardless of cfg: the inputs below
  // consume the same rng draws in the same order.
  while (o.members.size() < 90) {
    auto joined = o.overlay->Join(o.members[rng.NextBelow(o.members.size())]);
    EXPECT_TRUE(joined.ok());
    o.members.push_back(joined.value());
  }
  for (int i = 0; i < 900; ++i) {
    EXPECT_TRUE(o.overlay
                    ->Insert(o.members[rng.NextBelow(o.members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }
  for (int round = 0; round < 5; ++round) {
    PeerId victim = o.members[rng.NextBelow(o.members.size())];
    o.overlay->Fail(victim);
    EXPECT_TRUE(o.overlay->RecoverAllFailures().ok());
    o.RemoveMember(victim);
    for (int q = 0; q < 50; ++q) {
      o.overlay->ExactSearch(o.Alive()[rng.NextBelow(o.Alive().size())],
                             rng.UniformInt(1, 999999999))
          .ok();
    }
  }
  o.overlay->CheckInvariants();
  if (lost_out != nullptr) *lost_out = o.overlay->lost_keys();
  return o.net.Snapshot();
}

TEST(Replication, RecoveryChargingUnchangedByReplication) {
  // The recovery protocol's own message types must be charged identically
  // whether replication is off (r = 0, the paper's behaviour) or on (r = 2):
  // replication only ever *adds* kReplica* traffic.
  auto base = RunRecoveryScenario(BatonConfig{});
  auto with_repl = RunRecoveryScenario(WithReplication(2));
  for (net::MsgType t :
       {net::MsgType::kDeadProbe, net::MsgType::kRecoveryProbe,
        net::MsgType::kRecoveryReply, net::MsgType::kFailureReport,
        net::MsgType::kJoinForward, net::MsgType::kReplacementForward,
        net::MsgType::kExactQuery}) {
    EXPECT_EQ(base.by_type[static_cast<size_t>(t)],
              with_repl.by_type[static_cast<size_t>(t)])
        << "replication perturbed " << net::MsgTypeName(t) << " charging";
  }
}

TEST(Replication, FactorZeroIsExactNoOp) {
  // An explicit r = 0 config must be bit-identical in accounting to the
  // default config: same totals, every counter equal, zero replica traffic.
  uint64_t lost_default = 0, lost_r0 = 0;
  auto base = RunRecoveryScenario(BatonConfig{}, &lost_default);
  BatonConfig r0;
  r0.replication.factor = 0;
  r0.replication.eager_push = false;  // must not matter at r = 0
  auto explicit_r0 = RunRecoveryScenario(r0, &lost_r0);
  EXPECT_EQ(base.total, explicit_r0.total);
  for (int i = 0; i < net::kNumMsgTypes; ++i) {
    EXPECT_EQ(base.by_type[static_cast<size_t>(i)],
              explicit_r0.by_type[static_cast<size_t>(i)])
        << net::MsgTypeName(static_cast<net::MsgType>(i));
  }
  EXPECT_GT(lost_default, 0u) << "the scenario must actually lose keys";
  EXPECT_EQ(lost_default, lost_r0);
}

TEST(Replication, NoReplicaTrafficWhenDisabled) {
  Overlay o(10);
  Rng rng(10);
  o.Grow(50, &rng);
  o.InsertUniform(500, &rng);
  PeerId victim = o.members[7];
  o.overlay->Fail(victim);
  ASSERT_TRUE(o.overlay->RecoverFailure(victim).ok());
  o.RemoveMember(victim);
  o.overlay->RepairReplicas();  // no-op when disabled
  EXPECT_EQ(ReplicaMessages(o.net), 0u);
  EXPECT_EQ(o.overlay->replication_manager().total_replica_keys(), 0u);
}

}  // namespace
}  // namespace baton
