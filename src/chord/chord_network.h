// Chord baseline (Stoica et al., SIGCOMM 2001), instrumented with the same
// message counters as BATON so Fig. 8(a)-(d) can compare them directly.
//
// Implements the aggressive join/leave protocol of the original paper
// (find_successor routing, finger-table initialisation, update_others), on a
// 32-bit identifier ring. Exact queries hash the key and route to its
// successor in O(log N) hops; joins/leaves pay O(log^2 N) messages to fix
// finger tables -- the cost BATON's section V-A highlights. Range queries are
// not supported: "hashing destroys the ordering of data".
#ifndef BATON_CHORD_CHORD_NETWORK_H_
#define BATON_CHORD_CHORD_NETWORK_H_

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "net/network.h"
#include "util/key_bag.h"
#include "util/keys.h"
#include "util/rng.h"
#include "util/status.h"

namespace baton {
namespace chord {

using net::PeerId;
using net::kNullPeer;

/// Ring identifiers are kBits-bit integers.
using ChordId = uint32_t;
inline constexpr int kBits = 32;

struct ChordNode {
  PeerId id = kNullPeer;
  ChordId chord_id = 0;
  bool in_ring = false;

  PeerId successor = kNullPeer;
  PeerId predecessor = kNullPeer;
  /// fingers[i] = successor of (chord_id + 2^i) mod 2^kBits.
  std::array<PeerId, kBits> fingers{};

  KeyBag keys;  // stores the *hashed* key identifiers
};

class ChordNetwork {
 public:
  ChordNetwork(net::Network* net, uint64_t seed);
  ChordNetwork(const ChordNetwork&) = delete;
  ChordNetwork& operator=(const ChordNetwork&) = delete;

  /// Creates the first node of the ring.
  PeerId Bootstrap();

  /// Joins via `contact`: one find_successor for the joiner's position, the
  /// finger-table initialisation, and update_others.
  Result<PeerId> Join(PeerId contact);

  /// Leaves: keys to the successor, pointer fixes, and the O(log^2 N)
  /// update of fingers pointing at the leaver.
  Status Leave(PeerId leaver);

  using LookupResult = net::SearchResult;
  /// Exact-match query for an (unhashed) key.
  Result<LookupResult> Lookup(PeerId from, Key key);

  Status Insert(PeerId from, Key key);
  Status Delete(PeerId from, Key key);

  size_t size() const { return members_.size(); }
  const std::vector<PeerId>& members() const { return members_; }
  const ChordNode& node(PeerId p) const;
  uint64_t total_keys() const { return total_keys_; }

  /// Validates ring order, successor/predecessor symmetry, finger
  /// correctness and key placement. CHECK-fails on violation.
  void CheckInvariants() const;

  static ChordId HashKey(Key k);
  static ChordId HashPeer(PeerId p, uint64_t salt);

 private:
  ChordNode* N(PeerId p);
  const ChordNode* N(PeerId p) const;

  /// True if x lies in the ring interval (a, b] (half-open from a).
  static bool InIntervalOpenClosed(ChordId x, ChordId a, ChordId b);
  /// True if x lies in the ring interval (a, b) (open).
  static bool InIntervalOpen(ChordId x, ChordId a, ChordId b);

  PeerId ClosestPrecedingFinger(const ChordNode* n, ChordId id) const;
  /// Iterative find_predecessor(id); every forwarding hop counts one message
  /// of type `hop_type`.
  PeerId FindPredecessor(PeerId from, ChordId id, net::MsgType hop_type,
                         int* hops);
  PeerId FindSuccessor(PeerId from, ChordId id, net::MsgType hop_type,
                       int* hops);

  void InitFingerTable(ChordNode* n, PeerId contact);
  void UpdateOthersOnJoin(ChordNode* n);
  void UpdateOthersOnLeave(ChordNode* n);

  net::Network* net_;
  Rng rng_;
  uint64_t salt_;
  std::vector<std::unique_ptr<ChordNode>> nodes_;
  std::vector<PeerId> members_;  // kept sorted by chord_id
  std::set<ChordId> used_ids_;  // collision re-hash (never reused)
  uint64_t total_keys_ = 0;
};

}  // namespace chord
}  // namespace baton

#endif  // BATON_CHORD_CHORD_NETWORK_H_
