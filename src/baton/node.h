// The state one BATON peer maintains, exactly as section III prescribes:
// a link to its parent, its two children, its two adjacent nodes, plus a left
// and right sideways routing table. Every link caches the target's logical
// position, managed range and child-occupancy bits ("a routing table entry
// carries additional information beyond just the target IP address").
//
// Storage is flat. BatonNetwork keeps every BatonNode by value in one vector
// indexed by PeerId, and every member's routing entries in RoutingRows, one
// slab per tree level. A routing hop therefore reads the node's first cache
// lines (range, row handle, table sizes, adjacent links) and one contiguous
// run of 16-byte hot entries, never a per-node heap block.
#ifndef BATON_BATON_NODE_H_
#define BATON_BATON_NODE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
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
  bool has_left = false;
  bool has_right = false;
  Position pos;
  Range range;

  bool valid() const { return peer != kNullPeer; }
  bool HasChild() const { return has_left || has_right; }
  void Clear() { *this = NodeRef{}; }
};

/// Slot math of the sideways routing tables. Entry i links to the node at
/// the same level whose number differs by 2^i. Slots exist only for in-range
/// positions; a slot with no peer is a "null" entry ("If there is no such
/// node, an entry is still made in the routing table, but marked as null").
/// The entries themselves live in RoutingRows.
class RoutingTable {
 public:
  /// Number of representable slots for a node at `pos` looking left/right.
  static int NumSlots(const Position& pos, bool left);

  /// Position entry i refers to (same level, number +/- 2^i).
  static Position SlotPosition(const Position& pos, bool left, int i);

  /// Index for a same-level position at distance `d`, or -1 if d is not a
  /// power of two (only powers of two are representable).
  static int SlotForDistance(uint64_t d);
};

/// The part of a routing entry a hop reads: the peer, the bound it compares
/// (range.lo on the right side, range.hi on the left), and the peer's row
/// when the entry was written. A table neighbour sits on the holder's level,
/// so that row locates its entries before its node is read; the row is only
/// a prefetch hint, and a stale one prefetches the wrong lines.
struct RouteHot {
  Key bound = 0;
  PeerId peer = kNullPeer;
  uint32_t row = UINT32_MAX;
};

/// The rest of a routing entry: the other bound and the child bits.
struct RouteCold {
  Key other = 0;
  bool has_left = false;
  bool has_right = false;
};

/// One tree level's routing entries. A node at level L owns one row of 2L
/// entries: its left slots from the row's start, its right slots from the
/// row's middle (NumSlots is at most L on either side). Hot and cold parts
/// are parallel arrays with the same index, so the hot parts of one side are
/// contiguous. Released rows are reused first, so a slab follows its level's
/// live membership. An entry stores no position: entry i of a row is always
/// at RoutingTable::SlotPosition(owner's position, side, i).
class RoutingRows {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  explicit RoutingRows(uint32_t level) : level_(level) {}

  /// A row owned by `owner`, every entry null.
  uint32_t Acquire(PeerId owner);
  void Release(uint32_t row);
  /// Hands `row` to a new owner with its entries intact.
  void Transfer(uint32_t row, PeerId owner);
  /// Nulls every entry of `row`.
  void Clear(uint32_t row);

  /// Owner of `row`, or kNullPeer when the row is free or does not exist.
  PeerId owner(uint32_t row) const {
    return row < owners_.size() ? owners_[row] : kNullPeer;
  }
  size_t in_use() const { return owners_.size() - free_.size(); }

  /// The hot parts of one side of `row`, slot 0 first.
  const RouteHot* hot(uint32_t row, bool left) const {
    return hot_.data() + Start(row, left);
  }
  /// Entry i of one side, without its position (the caller knows it).
  NodeRef Get(uint32_t row, bool left, int i) const;
  /// Writes entry i of one side; an invalid ref nulls it. `peer_row` is
  /// ref.peer's own row, kept as the entry's prefetch hint.
  void Set(uint32_t row, bool left, int i, const NodeRef& ref,
           uint32_t peer_row);
  /// Asks the CPU to fetch the hot parts of one side of `row` (any value:
  /// a row that does not exist is ignored).
  void Prefetch(uint32_t row, bool left) const {
    if (row >= owners_.size() || level_ == 0) return;
    const char* first = reinterpret_cast<const char*>(hot(row, left));
    size_t bytes = level_ * sizeof(RouteHot);
    for (size_t b = 0; b < bytes; b += 64) __builtin_prefetch(first + b);
    __builtin_prefetch(first + bytes - 1);  // the side may straddle a line
  }
  /// No null entry among the first `size` slots of one side.
  bool IsFull(uint32_t row, bool left, int size) const;

 private:
  size_t Start(uint32_t row, bool left) const {
    return (size_t{row} * 2 + (left ? 0 : 1)) * level_;
  }

  uint32_t level_;
  std::vector<RouteHot> hot_;
  std::vector<RouteCold> cold_;
  std::vector<PeerId> owners_;  // per row; kNullPeer while free
  std::vector<uint32_t> free_;
};

/// Full per-peer state. Internal to the library; the public API is
/// BatonNetwork. Members are public because every protocol file manipulates
/// them (this mirrors how the paper describes node state). The routing
/// tables are the row `row` of level pos.level's RoutingRows, which
/// BatonNetwork owns; read them through BatonNetwork::TableEntry.
///
/// Field order is layout. A routing hop reads range, pos, id, the row handle
/// and the table sizes, and the range scan follows right_adj on every step,
/// so all of these sit in the first 128 bytes (two cache lines); the key bag
/// the scan counts follows in the third.
struct alignas(64) BatonNode {
  Range range;
  Position pos;
  PeerId id = kNullPeer;
  uint32_t row = RoutingRows::kNoRow;  // kNoRow outside the overlay
  uint8_t left_slots = 0;   // NumSlots(pos, left) while holding a row
  uint8_t right_slots = 0;  // NumSlots(pos, right) while holding a row
  bool in_overlay = false;  // false once the peer left/failed

  NodeRef left_adj;   // in-order predecessor
  NodeRef right_adj;  // in-order successor

  KeyBag data;

  /// Load-balancing backoff: skip further attempts until the node's load
  /// reaches this value again (avoids re-probing on every insert when no
  /// lightly loaded recruit exists).
  size_t lb_retry_at = 0;

  NodeRef parent;
  NodeRef left_child;
  NodeRef right_child;

  bool IsLeaf() const { return !left_child.valid() && !right_child.valid(); }
  bool HasBothChildren() const {
    return left_child.valid() && right_child.valid();
  }
  int TableSize(bool left) const { return left ? left_slots : right_slots; }

  /// A NodeRef describing this node's current state (to hand to peers).
  NodeRef SelfRef() const {
    return NodeRef{id, left_child.valid(), right_child.valid(), pos, range};
  }
};

// The node vector moves its elements when it grows; a throwing move would
// make it copy every key bag instead.
static_assert(std::is_nothrow_move_constructible_v<BatonNode>);
static_assert(sizeof(RouteHot) == 16 && sizeof(RouteCold) == 16);
static_assert(offsetof(BatonNode, right_adj) + sizeof(NodeRef) <= 128,
              "the hop-read fields must fit the node's first 128 bytes");
static_assert(offsetof(BatonNode, data) + sizeof(KeyBag) <= 192,
              "the scanned key bag must fit the node's third cache line");

}  // namespace baton

#endif  // BATON_BATON_NODE_H_
