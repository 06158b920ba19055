// Structural validation for the D3-Tree. The checker models the
// experimenter, not a peer: it walks the whole backbone and every cluster,
// cross-checking the in-order range partition against the adjacency chain,
// the maintained subtree weights against a recount, and the protocol's
// deterministic balance guarantees.
//
// The balance bounds are checked with slack: the adaptive bucket target
// (log2 N) drifts as the overlay grows or shrinks, and a bucket untouched
// since the target moved can legitimately sit outside the tight
// [target/2, 2*target] window until the next operation on its path
// triggers a rebuild. The tight window is asserted in the tests, which pin
// the target; here the hard bounds are 4x-with-slack so a CHECK failure
// always means protocol breakage, never target drift.
#include <algorithm>

#include "d3tree/d3tree_network.h"
#include "util/check.h"

namespace baton {
namespace d3tree {

void D3TreeNetwork::CheckInvariants() const {
  if (live_count_ == 0) {
    BATON_CHECK_EQ(root_, kNullBucket);
    BATON_CHECK_EQ(bucket_count_, 0u);
    return;
  }
  BATON_CHECK_NE(root_, kNullBucket);
  BATON_CHECK_EQ(B(root_)->parent, kNullBucket);
  BATON_CHECK_EQ(B(root_)->weight, live_count_);

  const size_t target = EffectiveTarget();
  std::vector<BucketId> order = BucketsInOrder();
  BATON_CHECK_EQ(order.size(), bucket_count_);

  std::vector<PeerId> members;
  members.reserve(live_count_);
  std::vector<bool> seen(nodes_.size(), false);  // indexed by PeerId
  uint64_t keys = 0;

  for (BucketId bid : order) {
    const D3Bucket* bk = B(bid);
    BATON_CHECK(!bk->members.empty()) << "empty bucket " << bid;
    BATON_CHECK_LE(bk->members.size(), 4 * target + 8)
        << "bucket " << bid << " overflowed";

    // Backbone link symmetry and subtree weights.
    uint64_t w = bk->members.size();
    uint64_t wl = 0;
    uint64_t wr = 0;
    if (bk->left != kNullBucket) {
      BATON_CHECK_EQ(B(bk->left)->parent, bid);
      wl = B(bk->left)->weight;
    }
    if (bk->right != kNullBucket) {
      BATON_CHECK_EQ(B(bk->right)->parent, bid);
      wr = B(bk->right)->weight;
    }
    BATON_CHECK_EQ(bk->weight, w + wl + wr)
        << "weight drift at bucket " << bid;
    if (wl != 0 || wr != 0) {
      BATON_CHECK_LE(std::max(wl, wr),
                     4 * std::min(wl, wr) + 8 * target + 8)
          << "backbone weight imbalance at bucket " << bid;
    }

    // The bucket range is the contiguous concatenation of member ranges.
    const D3Node* first = N(bk->members.front());
    const D3Node* last = N(bk->members.back());
    BATON_CHECK_EQ(bk->range.lo, first->range.lo);
    BATON_CHECK_EQ(bk->range.hi, last->range.hi);
    for (size_t i = 0; i < bk->members.size(); ++i) {
      const D3Node* m = N(bk->members[i]);
      BATON_CHECK(m->in_overlay);
      BATON_CHECK_EQ(m->bucket, bid);
      BATON_CHECK(m->range.lo < m->range.hi);
      BATON_CHECK(!seen[m->id]) << "peer in two buckets";
      seen[m->id] = true;
      if (i > 0) {
        BATON_CHECK_EQ(N(bk->members[i - 1])->range.hi, m->range.lo);
      }
      if (!m->data.empty()) {
        BATON_CHECK(m->range.Contains(m->data.Min()));
        BATON_CHECK(m->range.Contains(m->data.Max()));
      }
      keys += m->data.size();
      members.push_back(m->id);
    }

    // Extent: left extent, bucket range and right extent tile contiguously.
    Range e = bk->range;
    if (bk->left != kNullBucket) {
      BATON_CHECK_EQ(B(bk->left)->extent.hi, bk->range.lo)
          << "left gap at bucket " << bid;
      e.lo = B(bk->left)->extent.lo;
    }
    if (bk->right != kNullBucket) {
      BATON_CHECK_EQ(B(bk->right)->extent.lo, bk->range.hi)
          << "right gap at bucket " << bid;
      e.hi = B(bk->right)->extent.hi;
    }
    BATON_CHECK(e == bk->extent) << "extent drift at bucket " << bid;
  }

  BATON_CHECK_EQ(members.size(), live_count_);
  BATON_CHECK_EQ(keys, total_keys_);
  BATON_CHECK(B(root_)->extent ==
              (Range{config_.domain_lo, config_.domain_hi}));

  // The global adjacency chain is exactly the in-order member sequence.
  BATON_CHECK_EQ(N(members.front())->left_adj, kNullPeer);
  BATON_CHECK_EQ(N(members.back())->right_adj, kNullPeer);
  BATON_CHECK_EQ(N(members.front())->range.lo, config_.domain_lo);
  BATON_CHECK_EQ(N(members.back())->range.hi, config_.domain_hi);
  for (size_t i = 0; i + 1 < members.size(); ++i) {
    const D3Node* a = N(members[i]);
    const D3Node* b = N(members[i + 1]);
    BATON_CHECK_EQ(a->right_adj, b->id);
    BATON_CHECK_EQ(b->left_adj, a->id);
    BATON_CHECK_EQ(a->range.hi, b->range.lo);
  }

  // Pending failures are still positioned members, just unresponsive.
  for (PeerId f : failed_) {
    BATON_CHECK(N(f)->in_overlay);
    BATON_CHECK(!net_->IsAlive(f));
  }
}

}  // namespace d3tree
}  // namespace baton
