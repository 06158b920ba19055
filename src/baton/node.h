// The state one BATON peer maintains, exactly as section III prescribes:
// a link to its parent, its two children, its two adjacent nodes, plus a left
// and right sideways routing table. Every link caches the target's logical
// position, managed range and child-occupancy bits ("a routing table entry
// carries additional information beyond just the target IP address").
#ifndef BATON_BATON_NODE_H_
#define BATON_BATON_NODE_H_

#include <cstdint>
#include <vector>

#include "baton/position.h"
#include "net/network.h"
#include "util/check.h"
#include "util/key_bag.h"
#include "util/keys.h"

namespace baton {

using net::PeerId;
using net::kNullPeer;

/// A link to another peer with cached remote metadata.
struct NodeRef {
  PeerId peer = kNullPeer;
  Position pos;
  Range range;
  bool has_left = false;
  bool has_right = false;

  bool valid() const { return peer != kNullPeer; }
  bool HasChild() const { return has_left || has_right; }
  void Clear() { *this = NodeRef{}; }
};

/// One sideways routing table (left or right). Entry i links to the node at
/// the same level whose number differs by 2^i. Slots exist only for in-range
/// positions; a slot with peer == kNullPeer is a "null" entry ("If there is
/// no such node, an entry is still made in the routing table, but marked as
/// null").
class RoutingTable {
 public:
  /// Number of representable slots for a node at `pos` looking left/right.
  static int NumSlots(const Position& pos, bool left);

  /// Re-dimension for a (possibly new) position; clears all entries.
  void Reset(const Position& pos, bool left);

  int size() const { return static_cast<int>(entries_.size()); }
  NodeRef& entry(int i) { return entries_[static_cast<size_t>(i)]; }
  const NodeRef& entry(int i) const { return entries_[static_cast<size_t>(i)]; }

  /// "A routing table is considered full if all valid links are not null."
  bool IsFull() const;

  /// Position entry i refers to (same level, number +/- 2^i).
  static Position SlotPosition(const Position& pos, bool left, int i);

  /// Index for a same-level position at distance `d`, or -1 if d is not a
  /// power of two (only powers of two are representable).
  static int SlotForDistance(uint64_t d);

 private:
  std::vector<NodeRef> entries_;
};

/// Full per-peer state. Internal to the library; the public API is
/// BatonNetwork. Members are public because every protocol file manipulates
/// them (this mirrors how the paper describes node state).
struct BatonNode {
  PeerId id = kNullPeer;
  Position pos;
  bool in_overlay = false;  // false once the peer left/failed

  NodeRef parent;
  NodeRef left_child;
  NodeRef right_child;
  NodeRef left_adj;   // in-order predecessor
  NodeRef right_adj;  // in-order successor

  RoutingTable left_rt;
  RoutingTable right_rt;

  Range range;
  KeyBag data;

  /// Load-balancing backoff: skip further attempts until the node's load
  /// reaches this value again (avoids re-probing on every insert when no
  /// lightly loaded recruit exists).
  size_t lb_retry_at = 0;

  bool IsLeaf() const { return !left_child.valid() && !right_child.valid(); }
  bool HasBothChildren() const {
    return left_child.valid() && right_child.valid();
  }
  bool TablesFull() const { return left_rt.IsFull() && right_rt.IsFull(); }

  /// A NodeRef describing this node's current state (to hand to peers).
  NodeRef SelfRef() const {
    return NodeRef{id, pos, range, left_child.valid(), right_child.valid()};
  }

  /// Sets position and re-dimensions both routing tables (entries cleared).
  void SetPosition(const Position& p) {
    pos = p;
    left_rt.Reset(p, /*left=*/true);
    right_rt.Reset(p, /*left=*/false);
  }
};

}  // namespace baton

#endif  // BATON_BATON_NODE_H_
