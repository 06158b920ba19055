// Message taxonomy shared by every overlay in the repo (BATON, Chord,
// multiway tree, D3-Tree). The paper's only performance metric is "number of
// passing messages"; tagging each hop with a type lets benches aggregate
// exactly the categories each figure plots. kMsgTypes is the one place a
// type's name and category are written down.
#ifndef BATON_NET_MESSAGE_H_
#define BATON_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace baton {
namespace net {

enum class MsgType : uint16_t {
  // --- Overlay maintenance: locating where to join / who replaces a leaver.
  kJoinForward = 0,       // JOIN request hops (Algorithm 1)
  kReplacementForward,    // FINDREPLACEMENT hops (Algorithm 2)

  // --- Overlay maintenance: updating state after a join/leave.
  kContentTransfer,       // range/data handover (split on join, merge on leave)
  kAdjacentUpdate,        // fixing left/right adjacent links
  kTableBuild,            // parent -> its neighbours: "inform your children"
  kTableBuildChild,       // neighbour -> its child
  kTableBuildReply,       // child -> new node (also installs reverse entry)
  kTableUpdate,           // point update of one routing-table entry
  kChildStatusNotify,     // child-occupancy bits changed at same-level peers
  kParentNotify,          // child -> parent or parent -> child link updates
  kReplacementNotify,     // "address of position P is now peer Q"
  kRangeUpdate,           // range-of-link refresh after a range change

  // --- Failure handling.
  kFailureReport,         // someone tells the parent its child is unreachable
  kRecoveryProbe,         // parent -> its neighbours' children (regenerate)
  kRecoveryReply,
  kDeadProbe,             // a message sent to a dead peer (wasted, counted)

  // --- Index operations.
  kExactQuery,            // exact-match routing hop
  kRangeQuery,            // range-query routing hop (to first intersection)
  kRangeScan,             // adjacent-link hop collecting the rest of a range
  kInsert,                // insert routing hop
  kDelete,                // delete routing hop

  // --- Load balancing (section IV-D).
  kLoadProbe,             // asking a neighbour for its load
  kLoadProbeReply,
  kLoadMove,              // bulk key movement between adjacent nodes
  kRestructureShift,      // one node handing its position to the next

  // --- Replication (extension beyond the paper: durable keys under churn).
  kReplicaPush,           // single-key update, primary -> holder
  kReplicaSync,           // bulk replica (re)synchronisation, primary -> holder
  kReplicaDrop,           // departing primary tells a holder to discard
  kReplicaProbe,          // anti-entropy freshness check (version exchange)
  kReplicaProbeReply,
  kReplicaRestore,        // recovery request for a failed primary's replica
  kReplicaRestoreReply,   // holder returns the replica contents

  // --- Chord baseline.
  kChordLookup,           // find_successor hop
  kChordJoinInit,         // building the joiner's finger table
  kChordUpdateOthers,     // fixing other nodes' fingers after join/leave
  kChordNotify,           // predecessor/successor pointer updates
  kChordKeyMove,

  // --- Multiway-tree baseline.
  kMultiwayJoinForward,
  kMultiwayChildPoll,     // leaver polling its children
  kMultiwayLinkUpdate,
  kMultiwaySearch,
  kMultiwayProbe,         // child probe during descent

  // --- D3-Tree backend (bucket clusters over a weight-balanced backbone;
  // see src/d3tree/). Generic types (kContentTransfer, kInsert, kDelete,
  // kDeadProbe, kFailureReport) are shared; these cover the protocol's own
  // traffic.
  kD3JoinForward,         // join request: contact -> cluster representative
  kD3Search,              // exact/range routing hop over the backbone
  kD3RangeScan,           // adjacent-link hop collecting the rest of a range
  kD3BucketUpdate,        // intra-cluster state: member tables, adjacency
  kD3BackboneUpdate,      // backbone links: parent/child/rep address changes
  kD3WeightUpdate,        // subtree-weight delta propagating toward the root
  kD3Redistribute,        // deterministic rebuild: peer reassigned to a bucket

  // --- Hot-path caching (src/cache/): backend-neutral, emitted by the
  // overlay measured wrapper rather than by backend protocol code.
  kCacheProbe,            // origin jumps straight at a remembered owner
  kCacheRefresh,          // fast-table entry shipped on lazy refresh

  kNumTypes,              // sentinel
};

inline constexpr int kNumMsgTypes = static_cast<int>(MsgType::kNumTypes);

/// Coarse categories used by the figure benches and the overlay-generic
/// comparison harness. Backend-neutral: every backend's types map into the
/// same buckets so category aggregates are comparable across overlays.
enum class MsgCategory : uint8_t {
  kJoinSearch,     // Fig 8(a), join series
  kLeaveSearch,    // Fig 8(a), leave series
  kMaintenance,    // Fig 8(b): routing-table update traffic
  kFailure,
  kQuery,          // Fig 8(d,e)
  kData,           // Fig 8(c)
  kLoadBalance,    // Fig 8(g,h)
  kReplication,    // replica push/sync/restore traffic (durability benches)
  kOther,
};

inline constexpr int kNumMsgCategories =
    static_cast<int>(MsgCategory::kOther) + 1;

/// Everything the repo knows about one message type: its human-readable tag
/// (diagnostics, trace events) and the category every figure bills it to.
struct MsgTypeInfo {
  MsgType type;
  const char* name;
  MsgCategory category;
};

/// One row per MsgType, in enum order; the static_asserts below refuse to
/// build a table with a row missing, extra or out of place.
inline constexpr MsgTypeInfo kMsgTypes[] = {
    {MsgType::kJoinForward, "JoinForward", MsgCategory::kJoinSearch},
    {MsgType::kReplacementForward, "ReplacementForward",
     MsgCategory::kLeaveSearch},
    {MsgType::kContentTransfer, "ContentTransfer", MsgCategory::kMaintenance},
    {MsgType::kAdjacentUpdate, "AdjacentUpdate", MsgCategory::kMaintenance},
    {MsgType::kTableBuild, "TableBuild", MsgCategory::kMaintenance},
    {MsgType::kTableBuildChild, "TableBuildChild", MsgCategory::kMaintenance},
    {MsgType::kTableBuildReply, "TableBuildReply", MsgCategory::kMaintenance},
    {MsgType::kTableUpdate, "TableUpdate", MsgCategory::kMaintenance},
    {MsgType::kChildStatusNotify, "ChildStatusNotify",
     MsgCategory::kMaintenance},
    {MsgType::kParentNotify, "ParentNotify", MsgCategory::kMaintenance},
    {MsgType::kReplacementNotify, "ReplacementNotify",
     MsgCategory::kMaintenance},
    {MsgType::kRangeUpdate, "RangeUpdate", MsgCategory::kMaintenance},
    {MsgType::kFailureReport, "FailureReport", MsgCategory::kFailure},
    {MsgType::kRecoveryProbe, "RecoveryProbe", MsgCategory::kFailure},
    {MsgType::kRecoveryReply, "RecoveryReply", MsgCategory::kFailure},
    {MsgType::kDeadProbe, "DeadProbe", MsgCategory::kFailure},
    {MsgType::kExactQuery, "ExactQuery", MsgCategory::kQuery},
    {MsgType::kRangeQuery, "RangeQuery", MsgCategory::kQuery},
    {MsgType::kRangeScan, "RangeScan", MsgCategory::kQuery},
    {MsgType::kInsert, "Insert", MsgCategory::kData},
    {MsgType::kDelete, "Delete", MsgCategory::kData},
    {MsgType::kLoadProbe, "LoadProbe", MsgCategory::kLoadBalance},
    {MsgType::kLoadProbeReply, "LoadProbeReply", MsgCategory::kLoadBalance},
    {MsgType::kLoadMove, "LoadMove", MsgCategory::kLoadBalance},
    {MsgType::kRestructureShift, "RestructureShift", MsgCategory::kLoadBalance},
    {MsgType::kReplicaPush, "ReplicaPush", MsgCategory::kReplication},
    {MsgType::kReplicaSync, "ReplicaSync", MsgCategory::kReplication},
    {MsgType::kReplicaDrop, "ReplicaDrop", MsgCategory::kReplication},
    {MsgType::kReplicaProbe, "ReplicaProbe", MsgCategory::kReplication},
    {MsgType::kReplicaProbeReply, "ReplicaProbeReply",
     MsgCategory::kReplication},
    {MsgType::kReplicaRestore, "ReplicaRestore", MsgCategory::kReplication},
    {MsgType::kReplicaRestoreReply, "ReplicaRestoreReply",
     MsgCategory::kReplication},
    // Baseline backends map into the same buckets as BATON so category
    // aggregates (e.g. MaintenanceDelta) are comparable across overlays.
    // find_successor serves queries and joins alike.
    {MsgType::kChordLookup, "ChordLookup", MsgCategory::kQuery},
    {MsgType::kChordJoinInit, "ChordJoinInit", MsgCategory::kMaintenance},
    {MsgType::kChordUpdateOthers, "ChordUpdateOthers",
     MsgCategory::kMaintenance},
    {MsgType::kChordNotify, "ChordNotify", MsgCategory::kMaintenance},
    {MsgType::kChordKeyMove, "ChordKeyMove", MsgCategory::kMaintenance},
    {MsgType::kMultiwayJoinForward, "MultiwayJoinForward",
     MsgCategory::kJoinSearch},
    {MsgType::kMultiwayChildPoll, "MultiwayChildPoll",
     MsgCategory::kLeaveSearch},
    {MsgType::kMultiwayLinkUpdate, "MultiwayLinkUpdate",
     MsgCategory::kMaintenance},
    {MsgType::kMultiwaySearch, "MultiwaySearch", MsgCategory::kQuery},
    {MsgType::kMultiwayProbe, "MultiwayProbe", MsgCategory::kJoinSearch},
    {MsgType::kD3JoinForward, "D3JoinForward", MsgCategory::kJoinSearch},
    {MsgType::kD3Search, "D3Search", MsgCategory::kQuery},
    {MsgType::kD3RangeScan, "D3RangeScan", MsgCategory::kQuery},
    {MsgType::kD3BucketUpdate, "D3BucketUpdate", MsgCategory::kMaintenance},
    {MsgType::kD3BackboneUpdate, "D3BackboneUpdate", MsgCategory::kMaintenance},
    {MsgType::kD3WeightUpdate, "D3WeightUpdate", MsgCategory::kMaintenance},
    {MsgType::kD3Redistribute, "D3Redistribute", MsgCategory::kLoadBalance},
    // A cache probe is a query hop (it replaces the protocol walk); the
    // fast-table refresh is routing-state upkeep, billed to maintenance.
    {MsgType::kCacheProbe, "CacheProbe", MsgCategory::kQuery},
    {MsgType::kCacheRefresh, "CacheRefresh", MsgCategory::kMaintenance},
};

static_assert(std::size(kMsgTypes) == kNumMsgTypes,
              "kMsgTypes needs exactly one row per MsgType");
// Row i must describe enumerator i. The check passes while the row count is
// wrong, so a missing row reports only the count above.
static_assert(
    [] {
      if (std::size(kMsgTypes) != kNumMsgTypes) return true;
      for (size_t i = 0; i < std::size(kMsgTypes); ++i) {
        if (static_cast<size_t>(kMsgTypes[i].type) != i) return false;
      }
      return true;
    }(),
    "kMsgTypes rows must follow MsgType's enum order");

/// Human-readable tag, for diagnostics and bench output.
constexpr const char* MsgTypeName(MsgType t) {
  size_t i = static_cast<size_t>(t);
  return i < std::size(kMsgTypes) ? kMsgTypes[i].name : "Unknown";
}

/// The category every figure bills `t` to.
constexpr MsgCategory CategoryOf(MsgType t) {
  size_t i = static_cast<size_t>(t);
  return i < std::size(kMsgTypes) ? kMsgTypes[i].category
                                  : MsgCategory::kOther;
}

/// Lowercase category tags, indexed by MsgCategory.
inline constexpr const char* kMsgCategoryNames[] = {
    "join_search", "leave_search", "maintenance", "failure",     "query",
    "data",        "load_balance", "replication", "other",
};
static_assert(std::size(kMsgCategoryNames) == kNumMsgCategories,
              "kMsgCategoryNames needs exactly one name per MsgCategory");

/// Lowercase category tag ("maintenance", "query", ...), for metric names
/// and bench output.
constexpr const char* MsgCategoryName(MsgCategory c) {
  size_t i = static_cast<size_t>(c);
  return i < std::size(kMsgCategoryNames) ? kMsgCategoryNames[i] : "other";
}

}  // namespace net
}  // namespace baton

#endif  // BATON_NET_MESSAGE_H_
