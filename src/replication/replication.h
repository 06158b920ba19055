// Replication subsystem: durable key storage under churn.
//
// The paper's index stores no replicas -- a failed peer's routing state is
// regenerated but its keys are simply lost (section III-C). This subsystem
// mirrors every node's KeyBag on a configurable set of r replica holders so
// failure recovery can restore the victim's keys from the freshest copy
// instead of dropping them.
//
// The manager is overlay-agnostic: it stores replica copies keyed by the
// primary's PeerId and charges every replica interaction through
// net::Network::Count (kReplicaPush / kReplicaSync / kReplicaRestore / ...),
// so the durability benches can plot replication overhead exactly like the
// paper plots maintenance traffic. The overlay supplies holder candidates
// from its own links (adjacent nodes and/or routing-table neighbours, per
// ReplicationConfig) -- the peers a primary can reach without extra routing.
//
// factor == 0 disables the subsystem entirely: no state, no messages, and
// every existing experiment reproduces its pre-replication counters.
#ifndef BATON_REPLICATION_REPLICATION_H_
#define BATON_REPLICATION_REPLICATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "util/key_bag.h"
#include "util/keys.h"

namespace baton {
namespace replication {

/// Tunables for one overlay's replication policy.
struct ReplicationConfig {
  /// Number of replica holders per node (r). 0 disables replication.
  int factor = 0;
  /// Push every single-key mutation to all live holders immediately (one
  /// kReplicaPush per holder per mutation). When false, mutations only bump
  /// the primary's version and replicas go stale until the next bulk sync or
  /// anti-entropy pass -- a cheap-but-lossy mode (exercised by the lazy-mode
  /// replication tests) that loses exactly the unsynced keys on failure.
  bool eager_push = true;
};

/// One mirrored copy of a primary's KeyBag at a holder peer.
struct ReplicaRecord {
  net::PeerId holder = net::kNullPeer;
  KeyBag keys;
  uint64_t version = 0;  // primary version this copy reflects
};

/// Aggregate result of one anti-entropy pass over a primary.
struct RepairStats {
  size_t probed = 0;   // freshness probes sent
  size_t healed = 0;   // stale replicas re-synced
  size_t rehomed = 0;  // replicas recreated on a new holder

  RepairStats& operator+=(const RepairStats& o) {
    probed += o.probed;
    healed += o.healed;
    rehomed += o.rehomed;
    return *this;
  }
};

class ReplicationManager {
 public:
  ReplicationManager(const ReplicationConfig& config, net::Network* net);
  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  bool enabled() const { return config_.factor > 0; }
  const ReplicationConfig& config() const { return config_; }

  // ------------------------------------------------------------------
  // Mutation hooks (called by the overlay as the primary's bag changes).
  // ------------------------------------------------------------------

  /// The primary's bag changed in bulk (join split, departure absorb, load
  /// move). Re-selects up to `factor` live holders from `candidates` (in
  /// order, skipping the primary and dead peers) and pushes a full copy to
  /// every missing or stale holder, one kReplicaSync each. `sender` defaults
  /// to the primary itself; failure recovery passes the relaying peer's
  /// address when it updates a still-dead primary's bag on its behalf.
  void FullSync(net::PeerId primary, const KeyBag& data,
                const std::vector<net::PeerId>& candidates,
                net::PeerId sender = net::kNullPeer);

  /// Single-key mutations. With eager_push, one kReplicaPush per live
  /// holder; a dead holder is skipped and its copy goes stale (the primary
  /// learns of the death through the overlay's own failure handling, not a
  /// per-push timeout).
  void PushInsert(net::PeerId primary, Key k);
  void PushErase(net::PeerId primary, Key k);

  // ------------------------------------------------------------------
  // Membership hooks.
  // ------------------------------------------------------------------

  /// The primary left the overlay; its replica set is discarded. When
  /// `charge` is set (graceful departure), `notifier` sends one kReplicaDrop
  /// per live holder; a failed primary's holders discard silently when they
  /// learn of the recovery.
  void DropPrimary(net::PeerId primary, net::PeerId notifier, bool charge);

  /// `holder` is gone (left or died): removes every replica it held and
  /// returns the affected primaries so the overlay can re-sync them onto
  /// fresh holders.
  std::vector<net::PeerId> ReleaseHolder(net::PeerId holder);

  /// Primaries whose replica `holder` currently holds (inspection before a
  /// departure decides which replicas need a hand-off).
  std::vector<net::PeerId> HeldPrimaries(net::PeerId holder) const;

  /// A gracefully departing holder hands its copy of `primary`'s replica to
  /// a fresh live candidate, preserving contents and version (one
  /// kReplicaSync charged from `from`). Used when the primary is a dead
  /// pending failure that cannot re-sync a replacement itself -- the
  /// departing holder may be carrying the only surviving copy. Returns
  /// false (and drops the record) when no destination exists.
  bool RelocateReplica(net::PeerId primary, net::PeerId from,
                       const std::vector<net::PeerId>& candidates);

  /// Recreates missing replicas (up to factor) on fresh candidates without
  /// touching up-to-date copies: the repair step after a holder departs.
  /// Returns #replicas created (one kReplicaSync each).
  size_t TopUp(net::PeerId primary, const KeyBag& data,
               const std::vector<net::PeerId>& candidates);

  // ------------------------------------------------------------------
  // Recovery and anti-entropy.
  // ------------------------------------------------------------------

  /// Restores the freshest live replica of `failed` into `*out`. Charges one
  /// kReplicaRestore request plus the kReplicaRestoreReply carrying the
  /// contents. Returns false when no live holder remains (keys are lost).
  bool Restore(net::PeerId failed, net::PeerId initiator, KeyBag* out);

  /// Anti-entropy pass over one primary: probes every holder's version
  /// (kReplicaProbe / kReplicaProbeReply), re-syncs stale copies, drops dead
  /// holders and recreates their replicas on fresh candidates.
  RepairStats Repair(net::PeerId primary, const KeyBag& data,
                     const std::vector<net::PeerId>& candidates);

  // ------------------------------------------------------------------
  // Introspection (tests, benches, invariant checks).
  // ------------------------------------------------------------------

  size_t replica_count(net::PeerId primary) const;
  /// Replicas whose holder is currently alive (the ones that actually
  /// protect the primary right now).
  size_t live_replica_count(net::PeerId primary) const;
  std::vector<net::PeerId> HoldersOf(net::PeerId primary) const;
  const KeyBag* ReplicaAt(net::PeerId primary, net::PeerId holder) const;
  /// Total keys held in replicas across all primaries (storage overhead).
  uint64_t total_replica_keys() const;

  /// CHECK-fails unless every up-to-date replica of `primary` matches `data`
  /// exactly (stale copies -- version behind, e.g. holder was dead during a
  /// push -- are exempt; anti-entropy is responsible for them).
  void CheckConsistent(net::PeerId primary, const KeyBag& data) const;

 private:
  struct PrimaryState {
    uint64_t version = 0;  // bumped on every mutation of the primary's bag
    std::vector<ReplicaRecord> replicas;
  };

  /// Adds holders from `candidates` until `factor` are present; each new
  /// holder receives a full copy (kReplicaSync charged from `sender`).
  /// Returns #added.
  size_t TopUpHolders(net::PeerId primary, net::PeerId sender,
                      PrimaryState* st, const KeyBag& data,
                      const std::vector<net::PeerId>& candidates);
  /// Removes records whose holder is dead. Uncharged: nothing can be sent to
  /// a dead peer, and the primary hears of the death through the overlay.
  void PruneDeadHolders(net::PeerId primary, PrimaryState* st);
  void SyncRecord(net::PeerId sender, const PrimaryState& st,
                  ReplicaRecord* rec, const KeyBag& data);

  /// primaries_[primary], grown on demand.
  PrimaryState& StateOf(net::PeerId primary);
  /// The primary's state, or nullptr past the end of primaries_.
  const PrimaryState* FindState(net::PeerId primary) const {
    return primary < primaries_.size() ? &primaries_[primary] : nullptr;
  }

  /// Reverse-index bookkeeping: every replica add/remove goes through these
  /// so ReleaseHolder stays O(replicas held) instead of scanning primaries_.
  void IndexHolder(net::PeerId holder, net::PeerId primary);
  void UnindexHolder(net::PeerId holder, net::PeerId primary);

  ReplicationConfig config_;
  net::Network* net_;
  /// Indexed by primary peer id (ids are dense and never reused). An id
  /// past the end, like a dropped primary, has the empty state: version 0,
  /// no replicas.
  std::vector<PrimaryState> primaries_;
  /// Indexed by holder peer id: the primaries whose replica it holds.
  std::vector<std::vector<net::PeerId>> held_for_;
};

}  // namespace replication
}  // namespace baton

#endif  // BATON_REPLICATION_REPLICATION_H_
