#include "overlay/d3tree_overlay.h"

namespace baton {
namespace overlay {

D3TreeOverlay::D3TreeOverlay(const d3tree::D3Config& cfg, uint64_t seed)
    : tree_(std::make_unique<d3tree::D3TreeNetwork>(cfg, network())) {
  // The D3-Tree protocol is fully deterministic -- no rng to seed. The
  // parameter keeps the factory signature uniform across backends.
  (void)seed;
}

const std::string& D3TreeOverlay::name() const {
  static const std::string kName = "d3tree";
  return kName;
}

PeerId D3TreeOverlay::RetryOrigin(PeerId origin, int attempt) const {
  const d3tree::D3Node& n = tree_->node(origin);
  if (!n.in_overlay) return origin;
  return CycleLinks(origin, attempt, {n.left_adj, n.right_adj},
                    [&](PeerId p) { return tree_->node(p).in_overlay; });
}

bool D3TreeOverlay::RouteHint(PeerId peer, uint64_t* lo,
                              uint64_t* hi) const {
  const d3tree::D3Node& n = tree_->node(peer);
  if (!n.in_overlay || n.range.lo >= n.range.hi) return false;
  *lo = static_cast<uint64_t>(n.range.lo);
  *hi = static_cast<uint64_t>(n.range.hi);
  return true;
}

namespace {

/// The backbone already maintains subtree extents per bucket; a fast-table
/// entry jumps to the bucket representative, which holds the routing state.
void CollectD3Subtree(const d3tree::D3TreeNetwork& d3, d3tree::BucketId b,
                      int depth, int levels,
                      std::vector<cache::FastEntry>* out) {
  if (b == d3tree::kNullBucket) return;
  const d3tree::D3Bucket& bk = d3.bucket(b);
  if (!bk.live || bk.members.empty()) return;
  if (bk.extent.lo < bk.extent.hi) {
    out->push_back({static_cast<uint64_t>(bk.extent.lo),
                    static_cast<uint64_t>(bk.extent.hi), bk.members.front(),
                    depth});
  }
  if (depth + 1 >= levels) return;
  CollectD3Subtree(d3, bk.left, depth + 1, levels, out);
  CollectD3Subtree(d3, bk.right, depth + 1, levels, out);
}

}  // namespace

void D3TreeOverlay::CollectFastTable(int levels,
                                     std::vector<cache::FastEntry>* out) const {
  if (levels <= 0 || tree_->size() == 0) return;
  CollectD3Subtree(*tree_, tree_->root_bucket(), 0, levels, out);
}

PeerId D3TreeOverlay::DoBootstrap() { return tree_->Bootstrap(); }

void D3TreeOverlay::DoJoin(PeerId contact, OpStats* st) {
  Fill(tree_->Join(contact), st);
}

void D3TreeOverlay::DoLeave(PeerId leaver, OpStats* st) {
  st->status = tree_->Leave(leaver);
}

void D3TreeOverlay::DoFail(PeerId victim, OpStats* st) {
  (void)st;
  tree_->Fail(victim);
}

void D3TreeOverlay::DoRecoverAllFailures(OpStats* st) {
  st->status = tree_->RecoverAllFailures();
}

void D3TreeOverlay::DoInsert(PeerId from, Key key, OpStats* st) {
  st->status = tree_->Insert(from, key);
}

void D3TreeOverlay::DoDelete(PeerId from, Key key, OpStats* st) {
  st->status = tree_->Delete(from, key);
}

void D3TreeOverlay::DoExactSearch(PeerId from, Key key, OpStats* st) {
  Fill(tree_->ExactSearch(from, key), st);
}

void D3TreeOverlay::DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) {
  Fill(tree_->RangeSearch(from, lo, hi), st);
}

}  // namespace overlay
}  // namespace baton
