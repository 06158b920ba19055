// BatonNetwork: the BATON overlay (VLDB 2005) over a simulated physical
// network.
//
// The class owns every peer's state and executes the paper's protocols
// (join, leave, failure recovery, restructuring, exact/range search,
// insert/delete, load balancing) while routing every inter-peer interaction
// through net::Network::Count so benches can reproduce the paper's
// message-count figures.
//
// Protocol code only consults a peer's local state and the metadata cached on
// its links. The position directory (position -> peer) is simulator state:
// protocols use it solely where the paper's protocol would obtain the same
// information through an already-counted message exchange (these sites are
// commented), and the invariant checker uses it freely (it models the
// experimenter, not a peer).
#ifndef BATON_BATON_BATON_NETWORK_H_
#define BATON_BATON_BATON_NETWORK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "baton/node.h"
#include "baton/position.h"
#include "net/message.h"
#include "net/network.h"
#include "replication/replication.h"
#include "util/histogram.h"
#include "util/keys.h"
#include "util/rng.h"
#include "util/status.h"

namespace baton {

/// Tunables. Defaults reproduce the paper's setup; load balancing is off
/// until a threshold is configured (section IV-D).
struct BatonConfig {
  /// Key domain [domain_lo, domain_hi); the paper uses [1, 10^9).
  Key domain_lo = 1;
  Key domain_hi = 1000000000;

  /// Load balancing (section IV-D). A node is overloaded when it stores more
  /// than the effective threshold; a recruit candidate is "lightly loaded"
  /// when it stores fewer than a quarter of the threshold.
  ///
  /// The threshold is either absolute (overload_threshold) or, when
  /// overload_factor > 0, adaptive: factor x the current network-average
  /// load (a peer would track this with a gossiped estimate; the simulator
  /// reads it directly). Adaptive is what keeps loads tight while the data
  /// volume grows.
  bool enable_load_balance = false;
  size_t overload_threshold = SIZE_MAX;
  double overload_factor = 0.0;
  /// Ablation switch: with remote recruiting off, overloaded leaves fall
  /// back to adjacent-node balancing only ("data migration may ripple
  /// through the network ... and incur high total overhead").
  bool enable_remote_recruit = true;
  /// Extension (paper footnote 2 / reference [4]): when the neighbour tables
  /// hold no lightly loaded leaf -- deep hot-region nodes have no same-level
  /// neighbours in shallow cold regions -- consult a skip-list load
  /// directory to find one globally, at O(log N) extra messages per lookup.
  bool enable_recruit_directory = false;

  /// Safety net: routing aborts (Status::Exhausted) after
  /// max_hops_factor * (tree height + 1) hops. Generous because routing under
  /// churn (Fig 8(i)) may detour around stale links.
  int max_hops_factor = 16;

  /// Replication policy (extension beyond the paper). factor == 0 (default)
  /// keeps the overlay replica-free and reproduces the paper's message counts
  /// exactly; factor == r mirrors every node's keys on r holders so failure
  /// recovery restores them instead of dropping them.
  replication::ReplicationConfig replication;
};

class BatonNetwork {
 public:
  BatonNetwork(const BatonConfig& config, net::Network* net, uint64_t seed);
  BatonNetwork(const BatonNetwork&) = delete;
  BatonNetwork& operator=(const BatonNetwork&) = delete;

  // ------------------------------------------------------------------
  // Membership (section III).
  // ------------------------------------------------------------------

  /// Creates the first node, managing the whole key domain. Must be called
  /// exactly once, before any Join.
  PeerId Bootstrap();

  /// A new peer joins via any existing node (section III-A): locating the
  /// accepting node costs kJoinForward messages; splitting content, fixing
  /// adjacent links and building the new routing tables costs the
  /// maintenance messages the paper bounds by 6 log N.
  Result<PeerId> Join(PeerId contact);

  /// Graceful departure (section III-B): leaves directly when safe, else
  /// finds a replacement leaf (Algorithm 2) which takes over this position.
  Status Leave(PeerId leaver);

  /// Abrupt failure (section III-C): the peer simply stops responding. Its
  /// keys are lost (the paper's index does not replicate data); its range is
  /// recovered by RecoverFailure. Until then routing must detour (III-D).
  void Fail(PeerId victim);

  /// Parent-driven repair of one failed node: regenerates the failed node's
  /// routing state from the parent's own tables and runs a graceful
  /// departure on its behalf.
  Status RecoverFailure(PeerId failed);

  /// Recovers every pending failure (retrying blocked ones until done).
  Status RecoverAllFailures();

  /// Failed-but-not-yet-recovered peers.
  const std::vector<PeerId>& pending_failures() const { return failed_; }

  // ------------------------------------------------------------------
  // Index operations (section IV).
  // ------------------------------------------------------------------

  using SearchResult = net::SearchResult;
  using RangeResult = net::RangeResult;

  /// Exact-match query issued at `from` (section IV-A).
  Result<SearchResult> ExactSearch(PeerId from, Key key);

  /// Range query [lo, hi) issued at `from` (section IV-B): routes to the
  /// first intersecting node, then follows adjacent links.
  Result<RangeResult> RangeSearch(PeerId from, Key lo, Key hi);

  /// Insert/delete (section IV-C). Insert may trigger load balancing when
  /// enabled (section IV-D).
  Status Insert(PeerId from, Key key);
  Status Delete(PeerId from, Key key);

  // ------------------------------------------------------------------
  // Introspection (simulator-side; used by tests, benches, examples).
  // ------------------------------------------------------------------

  /// Number of nodes currently in the overlay.
  size_t size() const { return size_; }
  PeerId root() const { return OccupantOf(Position::Root()); }
  /// p's state. Nodes live by value in one vector, so the reference is
  /// valid only until the next Join or Bootstrap.
  const BatonNode& node(PeerId p) const;
  bool InOverlay(PeerId p) const;
  /// All overlay members in in-order (key-space) order: an O(N) in-order
  /// walk of the position directory (no sort), so it stays correct even
  /// when cached adjacency links are stale under churn.
  std::vector<PeerId> Members() const;
  /// Occupant of a tree position, or kNullPeer (also for a level deeper
  /// than any the overlay has reached).
  PeerId OccupantOf(const Position& pos) const {
    if (pos.level >= levels_.size()) return kNullPeer;
    return levels_[pos.level].occupant[pos.number - 1];
  }
  /// Routing entry i of p's left (or right) table, by value. An invalid ref
  /// is a null entry; a valid one carries the slot's position
  /// (RoutingTable::SlotPosition of p's) and the cached range and child bits.
  NodeRef TableEntry(PeerId p, bool left, int i) const {
    const BatonNode* n = N(p);
    BATON_CHECK_LT(i, n->TableSize(left));
    NodeRef ref = levels_[n->pos.level].rows.Get(n->row, left, i);
    if (ref.valid()) ref.pos = RoutingTable::SlotPosition(n->pos, left, i);
    return ref;
  }
  /// Overwrites routing entry i of p's left (or right) table; an invalid ref
  /// nulls it. Every table write goes through here (protocol code included);
  /// tests use it to inject a fault.
  void SetTableEntry(PeerId p, bool left, int i, const NodeRef& ref) {
    BatonNode* n = N(p);
    BATON_CHECK_LT(i, n->TableSize(left));
    uint32_t peer_row =
        InOverlay(ref.peer) ? nodes_[ref.peer].row : RoutingRows::kNoRow;
    levels_[n->pos.level].rows.Set(n->row, left, i, ref, peer_row);
  }
  /// "A routing table is considered full if all valid links are not null";
  /// Theorem 1 lets a node accept a child only when both of its are.
  bool TablesFull(PeerId p) const { return TablesFull(N(p)); }

  /// Height of the tree (root = level 0); -1 when empty. O(1): maintained
  /// incrementally from the per-level occupancy counts (it sits inside the
  /// routing hop budget, so it runs on every search).
  int Height() const { return height_; }
  uint64_t total_keys() const { return total_keys_; }

  /// Validates every structural invariant (balance, Theorem 1/2, adjacency,
  /// range partitioning, link caches); CHECK-fails on violation. O(N log N).
  void CheckInvariants() const;

  /// Anti-entropy pass: every member re-derives its links (parent, children,
  /// adjacents, routing tables) from ground truth. Stands in for the
  /// periodic stabilisation a deployment runs to converge after heavy churn;
  /// uncharged (it models background repair, not a counted operation).
  /// No-op on a consistent overlay.
  void RepairAllLinks();

  /// Distribution of restructuring chain lengths (#nodes that changed
  /// position), one sample per restructure (Fig 8(h)).
  const Histogram& shift_sizes() const { return shift_sizes_; }
  /// Number of completed load-balancing operations.
  uint64_t load_balance_ops() const { return lb_ops_; }

  // ------------------------------------------------------------------
  // Durability (replication subsystem; see src/replication/).
  // ------------------------------------------------------------------

  /// Keys irrecoverably dropped from the index: a failed node's keys that no
  /// live replica could restore (always the full bag when replication is
  /// off), plus the final node's keys when the overlay shuts down.
  uint64_t lost_keys() const { return lost_keys_; }
  /// Keys restored from replicas during failure recovery.
  uint64_t recovered_keys() const { return recovered_keys_; }

  /// Anti-entropy pass: every live member probes its replica holders,
  /// re-syncs stale copies and recreates replicas lost to departed holders
  /// (charged: kReplicaProbe/kReplicaSync per repair). Run it after heavy
  /// churn or restructuring, like RepairAllLinks for data. No-op when
  /// replication is off.
  replication::RepairStats RepairReplicas();

  replication::ReplicationManager& replication_manager() { return *repl_; }
  const replication::ReplicationManager& replication_manager() const {
    return *repl_;
  }

  // ------------------------------------------------------------------
  // Update-propagation delay (network dynamics, Fig 8(i)).
  // ------------------------------------------------------------------

  /// While deferring, remote link-cache updates are queued instead of
  /// applied. This models "it takes some time for the network to update
  /// knowledge of joining or leaving nodes".
  void SetDeferUpdates(bool defer) { defer_updates_ = defer; }
  /// Applies every queued update in send order; returns how many there were.
  size_t FlushDeferred();
  size_t deferred_pending() const { return deferred_.size(); }

  net::Network* network() { return net_; }
  Rng* rng() { return &rng_; }
  const BatonConfig& config() const { return config_; }

 private:
  BatonNode* N(PeerId p) {
    BATON_CHECK_LT(p, nodes_.size());
    return &nodes_[p];
  }
  const BatonNode* N(PeerId p) const {
    BATON_CHECK_LT(p, nodes_.size());
    return &nodes_[p];
  }
  BatonNode* NodeOrNull(const NodeRef& ref) {
    return ref.valid() ? N(ref.peer) : nullptr;
  }
  /// Registers a peer and appends its node (outside the overlay). The only
  /// append to nodes_, so it may move every node.
  BatonNode* AddNode();

  void Count(PeerId from, PeerId to, net::MsgType type) {
    net_->Count(from, to, type);
  }
  /// Whether `to` answers `from`. A probe of a dead peer times out and
  /// costs one kDeadProbe.
  bool Probe(PeerId from, PeerId to) {
    if (net_->IsAlive(to)) return true;
    Count(from, to, net::MsgType::kDeadProbe);
    return false;
  }

  // ---- directory maintenance (simulator state) ----
  void IndexPosition(BatonNode* n);
  void UnindexPosition(BatonNode* n);

  // ---- routing rows (the per-level slabs in levels_) ----
  /// Moves n to `p` with both routing tables null. n keeps its row when it
  /// stays on its level; otherwise its row goes back to the old level's
  /// slab and it takes one at p's level.
  void SetPosition(BatonNode* n, const Position& p);
  /// n leaves the overlay: its row goes back to its level's slab.
  void ReleaseRow(BatonNode* n);
  /// z takes over x's position together with x's row, entries intact (the
  /// replacement's bulk handover); x is left without a row.
  void TakeOverPosition(BatonNode* z, BatonNode* x);
  /// The hot parts of one of n's tables, slot 0 first (n->TableSize(left)
  /// of them).
  const RouteHot* HotEntries(const BatonNode* n, bool left) const {
    return levels_[n->pos.level].rows.hot(n->row, left);
  }
  /// Starts fetching what the next hop reads when `at` forwards through its
  /// table entry `e` toward `left` (search.cc): the peer's first node line
  /// and, through the entry's row hint, that side of the peer's row. Without
  /// it the hop waits on the node line before it can locate the row.
  void PrefetchHop(const BatonNode* at, const RouteHot& e, bool left) const {
    __builtin_prefetch(&nodes_[e.peer]);
    levels_[at->pos.level].rows.Prefetch(e.row, left);
  }
  bool TablesFull(const BatonNode* n) const {
    const RoutingRows& rows = levels_[n->pos.level].rows;
    return rows.IsFull(n->row, true, n->left_slots) &&
           rows.IsFull(n->row, false, n->right_slots);
  }

  // ---- link bookkeeping ----
  /// Kinds of cached refs a peer holds; identifies the slot a remote update
  /// targets so updates can be applied (or deferred and applied later)
  /// defensively.
  enum class RefKind : uint8_t {
    kParent,
    kLeftChild,
    kRightChild,
    kLeftAdj,
    kRightAdj,
    kLeftRt,   // entry in holder's left routing table
    kRightRt,  // entry in holder's right routing table
  };

  /// Applies one remote cache update at `holder`, dropping it if the
  /// holder's state no longer matches (it moved, left, or the slot is gone).
  /// payload.peer == kNullPeer means "clear the ref if it still points at
  /// payload.pos".
  void ApplyRefUpdate(PeerId holder, RefKind kind, int slot, NodeRef payload);
  /// Runs ApplyRefUpdate now, or queues it while updates are deferred
  /// (propagation delay, Fig 8(i)). The payload is copied: it is the
  /// message content at send time.
  void SendRefUpdate(PeerId holder, RefKind kind, int slot, NodeRef payload);
  /// One queued SendRefUpdate.
  struct RefUpdate {
    PeerId holder;
    RefKind kind;
    int slot;
    NodeRef payload;
  };

  /// Refreshes cached metadata (pos/range/child bits) about x at every
  /// holder of a link to x, through SendRefUpdate. The holders are exactly
  /// the targets of x's own symmetric links: its parent, children, two
  /// adjacent nodes, and the same-level nodes in its routing tables (whose
  /// opposite-side entry at the same slot points back at x, by
  /// construction). Charges one `charge` message per holder. std::nullopt
  /// charges none: a relocation already paid for these links in its
  /// handover, and the anti-entropy pass is uncharged.
  void RefreshInboundRefs(BatonNode* x, std::optional<net::MsgType> charge);

  /// Re-derives both routing tables of x from the directory, charging one
  /// kTableUpdate per populated entry and installing the reverse entries.
  /// Protocol-equivalent: a relocated/recovering node learns each entry via
  /// the handover/probe message charged here (Theorem 2 guarantees the
  /// information is one hop away).
  void RebuildRoutingTables(BatonNode* x, bool charge);

  /// Null out entries pointing at vacated position `pos` in the tables of its
  /// same-level power-of-two neighbours; one kTableUpdate each, sent by
  /// `notifier` (the departing node or the peer handling its departure).
  void ClearReverseEntriesAt(const Position& pos, PeerId notifier);

  // ---- join (join.cc) ----
  PeerId FindJoinNode(PeerId contact, int* hops);
  void AcceptChild(BatonNode* x, BatonNode* y, bool as_left);
  void BuildChildTables(BatonNode* x, BatonNode* y);
  void SpliceIntoAdjacency(BatonNode* y, BatonNode* x, bool before);
  void UnspliceFromAdjacency(BatonNode* x);
  void SplitContent(BatonNode* x, BatonNode* y, bool as_left);

  // ---- leave (leave.cc) ----
  bool SafeToRemove(const BatonNode* x) const;
  /// The departure protocol opens with a parent handshake; under churn the
  /// cached parent link can be stale (the position changed hands), in which
  /// case the attempt aborts (Status::Unavailable) instead of corrupting the
  /// range partition. `exempt_dead` names a peer allowed to be dead (the
  /// node whose failure is being recovered: its state is regenerated at the
  /// initiator, so the handshake succeeds through it). Always true on a
  /// quiescent overlay.
  bool LeaveHandshakeOk(const BatonNode* x,
                        PeerId exempt_dead = kNullPeer) const;
  /// `peer_stays_up` marks a transient departure (the replacement protocol:
  /// the peer re-appears at another position immediately), in which case the
  /// replicas x holds for other primaries remain valid and are kept.
  void SafeLeaveAsLeaf(BatonNode* x, bool transfer_content,
                       bool peer_stays_up = false);
  /// Detaches leaf x whose content was already handed off elsewhere (load
  /// balancing): clears links, notifies neighbours, unindexes.
  void DetachLeaf(BatonNode* x);
  /// The departure steps every leaf x with parent p runs. Content, range
  /// and liveness are the caller's.
  void UnlinkLeaf(BatonNode* x, BatonNode* p);
  PeerId RunFindReplacement(BatonNode* start, int* hops);
  PeerId FindReplacementStart(BatonNode* x, int* hops);
  void ReplaceNode(BatonNode* x, BatonNode* z, bool content_lost);
  void RemoveLastNode(BatonNode* x);

  // ---- restructuring (restructure.cc) ----
  struct Move {
    BatonNode* node;
    Position to;
  };
  /// Forced join for load balancing: y becomes x's in-order neighbour taking
  /// half of x's content even if x cannot legally accept a child; the
  /// occupants shift along adjacent links until a legal slot absorbs the
  /// chain (section III-E / Fig 4, 7). Returns #nodes that changed position.
  int ForcedJoin(BatonNode* x, BatonNode* y, bool splice_before,
                 bool prefer_right);
  /// Fills the vacancy left by removing leaf position `vacated` by shifting
  /// occupants toward it until a safely removable leaf vacates instead
  /// (section III-E / Fig 5). Returns #nodes that changed position.
  int FillVacancy(const Position& vacated, BatonNode* pred_hint,
                  BatonNode* succ_hint, bool prefer_left);
  /// Applies a chain of relocations and repairs all affected links/tables,
  /// charging O(log N) messages per mover.
  void RelocateNodes(const std::vector<Move>& moves);

  bool TryBuildJoinChain(BatonNode* first_displaced, bool rightward,
                         std::vector<Move>* moves);
  bool TryBuildVacancyChain(const Position& vacated, BatonNode* start,
                            bool leftward, std::vector<Move>* moves);

  // ---- failure (failure.cc) ----
  void RegenerateFailedState(BatonNode* x, BatonNode* initiator);
  /// Replaces x's (dead) bag with the freshest live replica, accounting lost
  /// vs recovered keys. Returns true when a replica was restored; false means
  /// the keys are gone and the caller proceeds with the paper's lossy path.
  bool TryRestoreContent(BatonNode* x, BatonNode* initiator);

  // ---- replication glue (replicate.cc) ----
  /// Holder candidates for x's replicas, in preference order (adjacents,
  /// then parent/children, then routing-table neighbours).
  std::vector<PeerId> ReplicaCandidates(const BatonNode* x) const;
  /// Bulk (re)sync after x's bag changed wholesale; also tops up holders.
  /// `via` names the peer relaying on x's behalf when x itself is a dead
  /// pending failure whose bag recovery just changed (a dead primary cannot
  /// send, but its replicas must not be left diverging from its bag).
  void ReplicateFullSync(BatonNode* x, PeerId via = kNullPeer);
  void ReplicateInsert(BatonNode* x, Key k);
  void ReplicateErase(BatonNode* x, Key k);
  /// Peer `gone` no longer holds replicas (left or died): re-sync every
  /// live primary it held onto fresh holders. `graceful` marks a voluntary
  /// departure, in which case replicas of dead (unrecovered) primaries are
  /// handed off to fresh holders instead of discarded -- the departing peer
  /// may carry the only surviving copy, and the primary cannot re-sync a
  /// replacement itself.
  void ReplicaPeerGone(PeerId gone, bool graceful);
  /// Discards x's replica set; charged (kReplicaDrop per holder) only when x
  /// is still alive to announce its own departure.
  void ReplicaDropPrimary(BatonNode* x);

  // ---- routing (search.cc) ----
  struct RouteOutcome {
    PeerId node = kNullPeer;
    int hops = 0;
  };
  /// Routes from `from` to the node whose range contains `key`, counting one
  /// `hop_type` message per hop; detours around dead peers (III-D), charging
  /// kDeadProbe for each timed-out attempt.
  Result<RouteOutcome> RouteToKey(PeerId from, Key key, net::MsgType hop_type);
  /// Next hop decision of the search_exact algorithm, using only local state.
  /// Returns kNullPeer when `at` already owns the key.
  PeerId NextHop(const BatonNode* at, Key key) const;
  /// Fault-tolerant alternative hops, best first, excluding dead `avoid`.
  std::vector<PeerId> AlternativeHops(const BatonNode* at, Key key) const;

  // ---- load balancing (load_balance.cc) ----
  size_t EffectiveOverloadThreshold() const;
  void MaybeLoadBalance(BatonNode* overloaded);
  bool TryAdjacentBalance(BatonNode* overloaded);
  bool TryRemoteRecruit(BatonNode* overloaded);
  /// Finds the lightest leaf through the simulated load directory (footnote
  /// 2 / [4]) and charges the O(log N) skip-list traversal.
  BatonNode* DirectoryFindLightLeaf(BatonNode* asker, size_t light_cap);
  /// Moves recruit f next to the overloaded node v (steps 2-4 of IV-D).
  bool ExecuteRecruit(BatonNode* v, BatonNode* f);

  // ---- members ----
  BatonConfig config_;
  net::Network* net_;
  Rng rng_;

  /// Every peer that ever joined, by value, indexed by PeerId (ids are never
  /// reused). Only AddNode appends (for Bootstrap and Join), so a
  /// BatonNode* is valid until the next join.
  std::vector<BatonNode> nodes_;
  /// One tree level: its members' routing rows and its part of the
  /// position directory. Level l has 2^l positions; the peer at (l, n) is
  /// occupant[n - 1], kNullPeer while the position is empty.
  struct Level {
    explicit Level(uint32_t l)
        : rows(l), occupant(size_t{1} << l, kNullPeer) {}
    RoutingRows rows;
    std::vector<PeerId> occupant;
    /// Non-null entries of occupant; drives the O(1) height_ maintenance
    /// in IndexPosition/UnindexPosition.
    uint32_t occupied = 0;
  };
  /// levels_[l] for every level a member has reached. SetPosition adds
  /// levels; none is removed when the tree shrinks.
  std::vector<Level> levels_;
  size_t size_ = 0;
  int height_ = -1;
  std::vector<PeerId> failed_;

  bool defer_updates_ = false;
  std::vector<RefUpdate> deferred_;

  /// Join scratch, cleared before each use so a join walk step does not
  /// allocate: FindJoinNode's next-hop candidates, open slots and lateral
  /// jumps, and BuildChildTables' contacted parents (at most 2L of them for
  /// a joiner at level L, so a linear search is enough).
  std::vector<PeerId> join_candidates_;
  std::vector<PeerId> join_open_slots_;
  std::vector<PeerId> join_lateral_;
  std::vector<PeerId> join_contacted_;

  uint64_t total_keys_ = 0;
  Histogram shift_sizes_;
  uint64_t lb_ops_ = 0;
  bool bootstrapped_ = false;

  std::unique_ptr<replication::ReplicationManager> repl_;
  uint64_t lost_keys_ = 0;
  uint64_t recovered_keys_ = 0;
};

}  // namespace baton

#endif  // BATON_BATON_BATON_NETWORK_H_
