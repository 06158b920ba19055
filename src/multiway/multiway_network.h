// Multiway-tree baseline ([10]: Liau, Ng, Shu, Tan, Bressan, DBISP2P 2004),
// instrumented with the same message counters as BATON.
//
// Each peer is a tree node holding a direct key range; it links only to its
// parent, its (unbounded, configurable fan-out) children, and its two
// range-adjacent neighbours -- no sideways routing tables. Searching "entails
// hopping from the query node to the node containing the answer by following
// the links, one by one": up to the subtree containing the key, then down,
// probing children one at a time. Joins are cheap (descend to a node with a
// free child slot); leaves are expensive (the leaver polls all children to
// arrange a replacement) -- exactly the trade-off section V-A describes. The
// tree is not balanced: skewed join orders degrade it, and a single link
// failure partitions the structure (section III-D's "brittleness" contrast).
#ifndef BATON_MULTIWAY_MULTIWAY_NETWORK_H_
#define BATON_MULTIWAY_MULTIWAY_NETWORK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.h"
#include "util/key_bag.h"
#include "util/keys.h"
#include "util/rng.h"
#include "util/status.h"

namespace baton {
namespace multiway {

using net::PeerId;
using net::kNullPeer;

struct MultiwayConfig {
  Key domain_lo = 1;
  Key domain_hi = 1000000000;
  /// Maximum children per node. The paper notes both extremes hurt: small
  /// fan-out deepens the tree (costly joins/searches), large fan-out makes
  /// leaves expensive.
  int max_fanout = 4;
};

struct MultiwayNode {
  PeerId id = kNullPeer;
  bool in_overlay = false;
  int depth = 0;

  PeerId parent = kNullPeer;
  std::vector<PeerId> children;  // unordered; probed one by one
  PeerId left_nb = kNullPeer;    // range-adjacent neighbours
  PeerId right_nb = kNullPeer;

  Range range;    // keys managed directly
  Range extent;   // range ∪ all descendant ranges (contiguous by design)
  KeyBag data;
};

class MultiwayNetwork {
 public:
  MultiwayNetwork(const MultiwayConfig& config, net::Network* net,
                  uint64_t seed);
  MultiwayNetwork(const MultiwayNetwork&) = delete;
  MultiwayNetwork& operator=(const MultiwayNetwork&) = delete;

  PeerId Bootstrap();
  /// Join: descend from the contact to the first node with a free child
  /// slot (random branch below full nodes), which splits half its direct
  /// range to the joiner.
  Result<PeerId> Join(PeerId contact);
  /// Leave: a leaf merges its range into a neighbour; an internal node polls
  /// its children and recruits a leaf from its subtree as replacement.
  Status Leave(PeerId leaver);

  using SearchResult = net::SearchResult;
  using RangeResult = net::RangeResult;
  Result<SearchResult> ExactSearch(PeerId from, Key key);
  Result<RangeResult> RangeSearch(PeerId from, Key lo, Key hi);
  Status Insert(PeerId from, Key key);
  Status Delete(PeerId from, Key key);

  size_t size() const { return live_count_; }
  const MultiwayNode& node(PeerId p) const;
  std::vector<PeerId> Members() const;  // in range order
  int Depth() const;                    // max node depth
  uint64_t total_keys() const { return total_keys_; }
  void CheckInvariants() const;

 private:
  MultiwayNode* N(PeerId p);
  const MultiwayNode* N(PeerId p) const;

  /// Routing core: returns the node whose direct range contains the key.
  Result<SearchResult> Route(PeerId from, Key key, net::MsgType hop_type);
  /// Replacement search for internal leavers: poll children, descend to a
  /// leaf of the subtree (counting every poll).
  PeerId FindLeafInSubtree(MultiwayNode* x, int* msgs);
  void DetachLeafNode(MultiwayNode* leaf);

  MultiwayConfig config_;
  net::Network* net_;
  Rng rng_;
  std::vector<std::unique_ptr<MultiwayNode>> nodes_;
  size_t live_count_ = 0;
  PeerId root_ = kNullPeer;
  uint64_t total_keys_ = 0;
};

}  // namespace multiway
}  // namespace baton

#endif  // BATON_MULTIWAY_MULTIWAY_NETWORK_H_
