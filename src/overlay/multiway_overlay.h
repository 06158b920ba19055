// overlay::Overlay adapter over the multiway-tree baseline. Registered as
// "multiway". Order-preserving (range queries work, preload-during-growth
// splits at the content median) but has no failure-recovery protocol and no
// load balancing -- the brittleness section III-D contrasts BATON against.
#ifndef BATON_OVERLAY_MULTIWAY_OVERLAY_H_
#define BATON_OVERLAY_MULTIWAY_OVERLAY_H_

#include <memory>

#include "multiway/multiway_network.h"
#include "overlay/overlay.h"

namespace baton {
namespace overlay {

class MultiwayOverlay : public Overlay {
 public:
  MultiwayOverlay(const multiway::MultiwayConfig& cfg, uint64_t seed);

  const std::string& name() const override;
  uint32_t capabilities() const override {
    return kRangeSearch | kOrderedGrowth;
  }

  size_t size() const override { return tree_->size(); }
  std::vector<PeerId> Members() const override { return tree_->Members(); }
  uint64_t total_keys() const override { return tree_->total_keys(); }
  void CheckInvariants() const override { tree_->CheckInvariants(); }
  uint64_t build_salt() const override { return 0x3712; }

  /// Stale-route fallback: cycle through the origin's range-adjacent
  /// neighbours, then its parent.
  PeerId RetryOrigin(PeerId origin, int attempt) const override;

  /// Cache support: a member's hint interval is its direct key range; the
  /// fast-table replicates the top tree levels using the subtree extents
  /// every node already maintains.
  bool RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const override;
  void CollectFastTable(int levels,
                        std::vector<cache::FastEntry>* out) const override;

  multiway::MultiwayNetwork& multiway() { return *tree_; }
  const multiway::MultiwayNetwork& multiway() const { return *tree_; }

 protected:
  PeerId DoBootstrap() override;
  void DoJoin(PeerId contact, OpStats* st) override;
  void DoLeave(PeerId leaver, OpStats* st) override;
  void DoInsert(PeerId from, Key key, OpStats* st) override;
  void DoDelete(PeerId from, Key key, OpStats* st) override;
  void DoExactSearch(PeerId from, Key key, OpStats* st) override;
  void DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) override;

 private:
  std::unique_ptr<multiway::MultiwayNetwork> tree_;
};

/// Checked downcast; CHECK-fails when `ov` is not the multiway backend.
inline multiway::MultiwayNetwork& MultiwayBackend(Overlay& ov) {
  return As<MultiwayOverlay>(ov).multiway();
}
inline const multiway::MultiwayNetwork& MultiwayBackend(const Overlay& ov) {
  return As<MultiwayOverlay>(ov).multiway();
}

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_MULTIWAY_OVERLAY_H_
