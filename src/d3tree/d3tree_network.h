// D3-Tree overlay (arXiv:1503.07905, with the deterministic-bounds
// machinery of D²-Tree, arXiv:1009.3134), instrumented with the same
// message counters as BATON.
//
// Where BATON makes every peer a tree node and rebalances by probing and
// shifting occupants along adjacent links, the D3-Tree groups peers into
// virtual-node clusters ("buckets") hanging off a weight-balanced backbone
// tree. Each bucket manages a contiguous slice of the key space,
// partitioned in order across its members; the bucket's first member is the
// cluster *representative* and carries the backbone links. Joins and leaves
// are cluster-local (splice into / out of a bucket, O(1) structural work
// plus an O(backbone height) weight notification); restructuring is
// deferred until a bucket over/underflows or a backbone subtree's weight
// goes out of balance, at which point the protocol *deterministically*
// rebuilds the smallest offending subtree -- peers are redistributed evenly
// over a freshly balanced backbone, no probe-and-shift, no randomness. The
// protocol draws no random numbers at all: identical op sequences produce
// identical trees and identical message counts.
//
// Search routes over the backbone like a BST (climb to the subtree whose
// extent covers the key, descend by bucket-range comparison, final hop from
// the representative to the owning member); range queries scan the global
// in-order adjacency chain. Every inter-peer interaction is charged through
// net::Network::Count with the kD3* message types.
#ifndef BATON_D3TREE_D3TREE_NETWORK_H_
#define BATON_D3TREE_D3TREE_NETWORK_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "util/key_bag.h"
#include "util/keys.h"
#include "util/status.h"

namespace baton {
namespace d3tree {

using net::PeerId;
using net::kNullPeer;

/// Index of a backbone node (a virtual node owning one bucket of peers).
using BucketId = uint32_t;
inline constexpr BucketId kNullBucket = static_cast<BucketId>(-1);

struct D3Config {
  Key domain_lo = 1;
  Key domain_hi = 1000000000;

  /// Target cluster size. 0 (default) adapts it to max(2, floor(log2 N)+1)
  /// -- the paper keeps buckets at Theta(log N) so the backbone stays
  /// exponentially smaller than the overlay. A peer would track N with a
  /// gossiped estimate; the simulator reads it directly (same convention as
  /// BATON's adaptive overload threshold).
  size_t bucket_target = 0;
};

/// One peer. Peers own a contiguous key range and link only to their two
/// in-order adjacent peers plus their cluster (bucket / representative);
/// all long-distance routing state lives on the backbone.
struct D3Node {
  PeerId id = kNullPeer;
  bool in_overlay = false;
  BucketId bucket = kNullBucket;

  PeerId left_adj = kNullPeer;   // global in-order adjacency chain
  PeerId right_adj = kNullPeer;

  Range range;  // keys managed directly
  KeyBag data;
};

/// One backbone node: a bucket of peers plus the backbone tree links its
/// representative maintains. In-order semantics: extent(left subtree) <
/// member ranges < extent(right subtree).
struct D3Bucket {
  bool live = false;
  BucketId parent = kNullBucket;
  BucketId left = kNullBucket;
  BucketId right = kNullBucket;

  /// Members in range order; members.front() is the representative (it
  /// holds the backbone links and the member table routing consults).
  std::vector<PeerId> members;

  /// Peers in this backbone node's subtree (bucket + both child subtrees).
  uint64_t weight = 0;

  Range range;   // union of member ranges (contiguous)
  Range extent;  // range ∪ children extents (contiguous by construction)
};

class D3TreeNetwork {
 public:
  D3TreeNetwork(const D3Config& config, net::Network* net);
  D3TreeNetwork(const D3TreeNetwork&) = delete;
  D3TreeNetwork& operator=(const D3TreeNetwork&) = delete;

  // ---- Membership ----------------------------------------------------------
  PeerId Bootstrap();
  /// Cluster-local join: the contact forwards the joiner to its bucket's
  /// representative, the joiner takes the upper half of the contact's range
  /// (content median when possible) and splices in as its in-order
  /// successor. Overflow / weight rebalancing is deferred to the end of the
  /// operation and handled by deterministic subtree rebuilds.
  Result<PeerId> Join(PeerId contact);
  /// Graceful departure: content and range merge into an in-order adjacent
  /// peer, the bucket splices the leaver out, and underflow / weight
  /// rebalancing runs the same deterministic machinery as Join.
  Status Leave(PeerId leaver);

  /// Abrupt failure: the peer stops responding. Its keys are lost (the
  /// D3-Tree does not replicate data); its range is reclaimed by
  /// RecoverAllFailures via the cluster-local repair path.
  void Fail(PeerId victim);
  /// Repairs every pending failure: a live cluster member detects the dead
  /// peer (timed-out probe), reports it, and the cluster removes it like a
  /// leave whose content is lost.
  Status RecoverAllFailures();
  const std::vector<PeerId>& pending_failures() const { return failed_; }

  // ---- Index operations ----------------------------------------------------
  using SearchResult = net::SearchResult;
  using RangeResult = net::RangeResult;
  Result<SearchResult> ExactSearch(PeerId from, Key key);
  Result<RangeResult> RangeSearch(PeerId from, Key lo, Key hi);

  Status Insert(PeerId from, Key key);
  Status Delete(PeerId from, Key key);

  // ---- Introspection -------------------------------------------------------
  size_t size() const { return live_count_; }
  const D3Node& node(PeerId p) const;
  std::vector<PeerId> Members() const;  // in-order (key-space) order
  uint64_t total_keys() const { return total_keys_; }
  /// Keys irrecoverably dropped by failure recovery (no replication).
  uint64_t lost_keys() const { return lost_keys_; }

  BucketId root_bucket() const { return root_; }
  const D3Bucket& bucket(BucketId b) const;
  size_t bucket_count() const { return bucket_count_; }
  /// Live bucket ids in in-order (key-space) order.
  std::vector<BucketId> BucketsInOrder() const;
  /// Current target cluster size (config, or the adaptive log2 N default).
  size_t EffectiveTarget() const;
  /// Backbone tree height (single bucket = 0); -1 when empty. O(#buckets).
  int BackboneHeight() const;
  /// Completed deterministic subtree rebuilds (the restructuring unit).
  uint64_t rebuild_ops() const { return rebuild_ops_; }
  /// Peers reassigned to a different bucket across all rebuilds.
  uint64_t rebuild_moves() const { return rebuild_moves_; }

  /// Validates the structural invariants: backbone link symmetry, correct
  /// subtree weights, contiguous in-order range partition matching the
  /// adjacency chain, members inside their bucket range, rep-first member
  /// order, data inside ranges, and the protocol's balance guarantees
  /// (bucket size bounds, backbone weight balance) with slack for the
  /// adaptive target drifting between rebuilds. CHECK-fails on violation.
  void CheckInvariants() const;

  net::Network* network() { return net_; }
  const D3Config& config() const { return config_; }

 private:
  D3Node* N(PeerId p);
  const D3Node* N(PeerId p) const;
  D3Bucket* B(BucketId b);
  const D3Bucket* B(BucketId b) const;
  PeerId RepOf(BucketId b) const;

  void Count(PeerId from, PeerId to, net::MsgType type) {
    net_->Count(from, to, type);
  }

  // ---- backbone bookkeeping (d3tree_network.cc) ----
  BucketId AllocBucket();
  void FreeBucket(BucketId b);
  /// Recomputes b's bucket range from its members and re-derives extents
  /// upward until they stabilise, charging one kD3BackboneUpdate per level
  /// whose extent changed (the boundary notification the paper's clusters
  /// exchange).
  void RefreshRangesUpward(BucketId b, PeerId notifier);
  /// Adds `delta` to every weight on the path b -> root, charging one
  /// kD3WeightUpdate per backbone edge traversed.
  void PropagateWeight(BucketId b, int64_t delta);
  int CeilLog2Size() const;

  // ---- join (join.cc) ----
  /// Picks the member of `b` that donates half its range to a joiner: the
  /// contact itself when splittable, else the bucket's widest member (the
  /// representative's member table knows the widths), else a walk along the
  /// adjacency chain. Charges the forward hops. Returns kNullPeer when the
  /// whole domain is saturated (every peer manages a single value), in
  /// which case Join refuses with Status::Exhausted.
  PeerId FindSplitDonor(BucketId b, PeerId contact, int* hops);

  // ---- leave / failure (leave.cc) ----
  /// Removes x from the overlay: hands its range (and, unless
  /// `content_lost`, its keys) to an in-order adjacent peer, splices the
  /// adjacency chain and the bucket, fixes the representative, propagates
  /// the weight decrement and runs the deterministic rebalance.
  /// `coordinator` is the peer charged for the removal's messages (x itself
  /// on a graceful leave, the failure reporter during recovery).
  void RemoveMember(D3Node* x, PeerId coordinator, bool content_lost);
  void RemoveLastNode(D3Node* x);

  // ---- deterministic load balance (load_balance.cc) ----
  bool Overflowed(const D3Bucket* b, size_t target) const;
  bool Underflowed(const D3Bucket* b, size_t target) const;
  /// max(wl, wr) > 2*min(wl, wr) + 2*target over the child subtree weights:
  /// the deterministic trigger for a subtree rebuild.
  bool WeightViolated(const D3Bucket* b, size_t target) const;
  /// Runs after any membership change in bucket b: finds the highest
  /// ancestor with a weight violation (or b itself on bucket
  /// over/underflow) and rebuilds that subtree. At most one rebuild per
  /// operation -- the deferral that makes joins/leaves cluster-local.
  void RebalanceAfterChange(BucketId b);
  /// Deterministic redistribution: collects the subtree's peers in order,
  /// rebuilds a balanced backbone of max(1, P/target) buckets over them and
  /// reassigns peers evenly, charging one kD3Redistribute per reassigned
  /// peer and one kD3BackboneUpdate per backbone link built.
  void RebuildSubtree(BucketId v);

  // ---- routing (search.cc) ----
  struct RouteOutcome {
    PeerId node = kNullPeer;
    int hops = 0;
  };
  /// Routes from `from` to the member whose range contains `key`: forward
  /// to the representative, climb the backbone while the key is outside the
  /// subtree extent, descend by bucket-range comparison, then one hop from
  /// the representative to the owning member.
  Result<RouteOutcome> RouteToKey(PeerId from, Key key, net::MsgType hop_type);
  /// Member of b owning `key` (b's range must contain it).
  PeerId OwnerInBucket(const D3Bucket* b, Key key) const;

  // ---- members ----
  D3Config config_;
  net::Network* net_;

  std::vector<D3Node> nodes_;      // indexed by PeerId
  std::vector<D3Bucket> buckets_;  // indexed by BucketId
  std::vector<BucketId> free_buckets_;
  BucketId root_ = kNullBucket;
  size_t bucket_count_ = 0;
  size_t live_count_ = 0;

  std::vector<PeerId> failed_;
  uint64_t total_keys_ = 0;
  uint64_t lost_keys_ = 0;
  uint64_t rebuild_ops_ = 0;
  uint64_t rebuild_moves_ = 0;
};

}  // namespace d3tree
}  // namespace baton

#endif  // BATON_D3TREE_D3TREE_NETWORK_H_
