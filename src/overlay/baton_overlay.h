// overlay::Overlay adapter over BatonNetwork. Registered as "baton".
#ifndef BATON_OVERLAY_BATON_OVERLAY_H_
#define BATON_OVERLAY_BATON_OVERLAY_H_

#include <memory>

#include "baton/baton_network.h"
#include "overlay/overlay.h"

namespace baton {
namespace overlay {

class BatonOverlay : public Overlay {
 public:
  BatonOverlay(const BatonConfig& cfg, uint64_t seed);

  const std::string& name() const override;
  uint32_t capabilities() const override;

  size_t size() const override { return baton_->size(); }
  std::vector<PeerId> Members() const override { return baton_->Members(); }
  uint64_t total_keys() const override { return baton_->total_keys(); }
  void CheckInvariants() const override { baton_->CheckInvariants(); }
  uint64_t build_salt() const override { return 0xba70; }

  /// Stale-route fallback: cycle through the origin's adjacent links (the
  /// paper's repair paths re-derive structure from in-order adjacency),
  /// then its parent.
  PeerId RetryOrigin(PeerId origin, int attempt) const override;

  /// Cache support: a member's hint interval is its key range; the
  /// fast-table replicates the top tree levels, each entry spanning the
  /// node's whole subtree (leftmost descendant's lo to rightmost's hi).
  bool RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const override;
  void CollectFastTable(int levels,
                        std::vector<cache::FastEntry>* out) const override;

  /// The wrapped backend, for BATON-specific introspection (tree positions,
  /// shift-size histogram, load-balance and durability counters).
  BatonNetwork& baton() { return *baton_; }
  const BatonNetwork& baton() const { return *baton_; }

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
  std::unique_ptr<BatonNetwork> baton_;
};

/// Checked downcast to the BATON backend for benches/tests that read
/// BATON-specific state through the generic interface. CHECK-fails when
/// `ov` is some other backend.
inline BatonNetwork& BatonBackend(Overlay& ov) {
  return As<BatonOverlay>(ov).baton();
}
inline const BatonNetwork& BatonBackend(const Overlay& ov) {
  return As<BatonOverlay>(ov).baton();
}

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_BATON_OVERLAY_H_
