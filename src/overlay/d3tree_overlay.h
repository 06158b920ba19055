// overlay::Overlay adapter over the D3-Tree backend. Registered as
// "d3tree". Order-preserving (range queries, content-median splits during
// growth), with cluster-local failure recovery and the deterministic
// bucket/backbone load balancer -- the first backend written against the
// unified API rather than adapted to it.
#ifndef BATON_OVERLAY_D3TREE_OVERLAY_H_
#define BATON_OVERLAY_D3TREE_OVERLAY_H_

#include <memory>

#include "d3tree/d3tree_network.h"
#include "overlay/overlay.h"

namespace baton {
namespace overlay {

class D3TreeOverlay : public Overlay {
 public:
  D3TreeOverlay(const d3tree::D3Config& cfg, uint64_t seed);

  const std::string& name() const override;
  uint32_t capabilities() const override {
    return kRangeSearch | kOrderedGrowth | kLoadBalance | kFailRecovery;
  }

  size_t size() const override { return tree_->size(); }
  std::vector<PeerId> Members() const override { return tree_->Members(); }
  uint64_t total_keys() const override { return tree_->total_keys(); }
  void CheckInvariants() const override { tree_->CheckInvariants(); }
  uint64_t build_salt() const override { return 0xd37e; }

  /// The wrapped backend, for D3-specific introspection (bucket bounds,
  /// backbone shape, rebuild counters).
  /// Stale-route fallback: alternate between the origin's in-order
  /// adjacent peers (all long-distance state lives on the backbone, so
  /// adjacency is the only per-peer link to fall back on).
  PeerId RetryOrigin(PeerId origin, int attempt) const override;

  /// Cache support: a member's hint interval is its direct key range; the
  /// fast-table replicates the top backbone buckets (extent -> the bucket
  /// representative, which holds the routing state a jump lands on).
  bool RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const override;
  void CollectFastTable(int levels,
                        std::vector<cache::FastEntry>* out) const override;

  d3tree::D3TreeNetwork& d3tree() { return *tree_; }
  const d3tree::D3TreeNetwork& d3tree() const { return *tree_; }

 protected:
  PeerId DoBootstrap() override;
  void DoJoin(PeerId contact, OpStats* st) override;
  void DoLeave(PeerId leaver, OpStats* st) override;
  void DoFail(PeerId victim, OpStats* st) override;
  void DoRecoverAllFailures(OpStats* st) override;
  void DoInsert(PeerId from, Key key, OpStats* st) override;
  void DoDelete(PeerId from, Key key, OpStats* st) override;
  void DoExactSearch(PeerId from, Key key, OpStats* st) override;
  void DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) override;

 private:
  std::unique_ptr<d3tree::D3TreeNetwork> tree_;
};

/// Checked downcast; CHECK-fails when `ov` is not the d3tree backend.
inline d3tree::D3TreeNetwork& D3TreeBackend(Overlay& ov) {
  return As<D3TreeOverlay>(ov).d3tree();
}
inline const d3tree::D3TreeNetwork& D3TreeBackend(const Overlay& ov) {
  return As<D3TreeOverlay>(ov).d3tree();
}

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_D3TREE_OVERLAY_H_
