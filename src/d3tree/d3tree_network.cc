#include "d3tree/d3tree_network.h"

#include <algorithm>

#include "util/check.h"

namespace baton {
namespace d3tree {

D3TreeNetwork::D3TreeNetwork(const D3Config& config, net::Network* net)
    : config_(config), net_(net) {
  BATON_CHECK(net != nullptr);
  BATON_CHECK_LT(config.domain_lo, config.domain_hi);
}

D3Node* D3TreeNetwork::N(PeerId p) {
  BATON_CHECK_LT(p, nodes_.size());
  return &nodes_[p];
}

const D3Node* D3TreeNetwork::N(PeerId p) const {
  BATON_CHECK_LT(p, nodes_.size());
  return &nodes_[p];
}

const D3Node& D3TreeNetwork::node(PeerId p) const { return *N(p); }

D3Bucket* D3TreeNetwork::B(BucketId b) {
  BATON_CHECK_LT(b, buckets_.size());
  BATON_CHECK(buckets_[b].live);
  return &buckets_[b];
}

const D3Bucket* D3TreeNetwork::B(BucketId b) const {
  BATON_CHECK_LT(b, buckets_.size());
  BATON_CHECK(buckets_[b].live);
  return &buckets_[b];
}

const D3Bucket& D3TreeNetwork::bucket(BucketId b) const { return *B(b); }

PeerId D3TreeNetwork::RepOf(BucketId b) const {
  const D3Bucket* bk = B(b);
  BATON_CHECK(!bk->members.empty());
  return bk->members.front();
}

size_t D3TreeNetwork::EffectiveTarget() const {
  if (config_.bucket_target > 0) return config_.bucket_target;
  size_t t = 0;
  for (size_t n = live_count_; n > 1; n >>= 1) ++t;  // floor(log2 N)
  return std::max<size_t>(2, t + 1);
}

int D3TreeNetwork::CeilLog2Size() const {
  int l = 0;
  while ((1ull << l) < live_count_) ++l;
  return l;
}

BucketId D3TreeNetwork::AllocBucket() {
  BucketId id;
  if (!free_buckets_.empty()) {
    id = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    id = static_cast<BucketId>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[id] = D3Bucket{};
  buckets_[id].live = true;
  ++bucket_count_;
  return id;
}

void D3TreeNetwork::FreeBucket(BucketId b) {
  BATON_CHECK(buckets_[b].live);
  buckets_[b] = D3Bucket{};
  free_buckets_.push_back(b);
  --bucket_count_;
}

void D3TreeNetwork::RefreshRangesUpward(BucketId b, PeerId notifier) {
  D3Bucket* bk = B(b);
  if (!bk->members.empty()) {
    bk->range = Range{N(bk->members.front())->range.lo,
                      N(bk->members.back())->range.hi};
  }
  BucketId cur = b;
  while (cur != kNullBucket) {
    D3Bucket* c = B(cur);
    Range e = c->range;
    if (c->left != kNullBucket) e.lo = B(c->left)->extent.lo;
    if (c->right != kNullBucket) e.hi = B(c->right)->extent.hi;
    if (c->members.empty()) {
      // Transient mid-operation state (the bucket is about to be rebuilt):
      // the extent is carried by the children alone.
      if (c->left != kNullBucket) {
        e = B(c->left)->extent;
        if (c->right != kNullBucket) e.hi = B(c->right)->extent.hi;
      } else if (c->right != kNullBucket) {
        e = B(c->right)->extent;
      }
    }
    if (e == c->extent) break;
    c->extent = e;
    // A parent emptied by the in-flight removal has no representative to
    // notify; the rebalance pass that follows rebuilds it anyway.
    if (c->parent != kNullBucket && !B(c->parent)->members.empty()) {
      Count(notifier, RepOf(c->parent), net::MsgType::kD3BackboneUpdate);
    }
    cur = c->parent;
  }
}

void D3TreeNetwork::PropagateWeight(BucketId b, int64_t delta) {
  BucketId cur = b;
  while (cur != kNullBucket) {
    D3Bucket* c = B(cur);
    c->weight = static_cast<uint64_t>(static_cast<int64_t>(c->weight) + delta);
    if (c->parent != kNullBucket && !c->members.empty()) {
      Count(RepOf(cur), RepOf(c->parent), net::MsgType::kD3WeightUpdate);
    }
    cur = c->parent;
  }
}

std::vector<BucketId> D3TreeNetwork::BucketsInOrder() const {
  std::vector<BucketId> out;
  if (root_ == kNullBucket) return out;
  out.reserve(bucket_count_);
  // Iterative in-order walk: (bucket, descend-phase) stack.
  std::vector<std::pair<BucketId, bool>> stack;
  stack.emplace_back(root_, false);
  while (!stack.empty()) {
    auto [b, visited] = stack.back();
    stack.pop_back();
    const D3Bucket* bk = B(b);
    if (visited) {
      out.push_back(b);
      if (bk->right != kNullBucket) stack.emplace_back(bk->right, false);
    } else {
      stack.emplace_back(b, true);
      if (bk->left != kNullBucket) stack.emplace_back(bk->left, false);
    }
  }
  return out;
}

std::vector<PeerId> D3TreeNetwork::Members() const {
  std::vector<PeerId> out;
  out.reserve(live_count_);
  for (BucketId b : BucketsInOrder()) {
    const D3Bucket* bk = B(b);
    out.insert(out.end(), bk->members.begin(), bk->members.end());
  }
  return out;
}

int D3TreeNetwork::BackboneHeight() const {
  if (root_ == kNullBucket) return -1;
  int best = 0;
  std::vector<std::pair<BucketId, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    auto [b, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const D3Bucket* bk = B(b);
    if (bk->left != kNullBucket) stack.emplace_back(bk->left, d + 1);
    if (bk->right != kNullBucket) stack.emplace_back(bk->right, d + 1);
  }
  return best;
}

}  // namespace d3tree
}  // namespace baton
