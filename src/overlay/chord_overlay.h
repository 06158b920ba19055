// overlay::Overlay adapter over the Chord baseline. Registered as "chord".
//
// Chord supports only the universal core: no range queries (hashing
// destroys key order), no failure-recovery protocol in this baseline, no
// load balancing (hashing spreads keys by construction).
#ifndef BATON_OVERLAY_CHORD_OVERLAY_H_
#define BATON_OVERLAY_CHORD_OVERLAY_H_

#include <memory>

#include "chord/chord_network.h"
#include "overlay/overlay.h"

namespace baton {
namespace overlay {

class ChordOverlay : public Overlay {
 public:
  explicit ChordOverlay(uint64_t seed);

  const std::string& name() const override;
  uint32_t capabilities() const override { return 0; }

  size_t size() const override { return ring_->size(); }
  std::vector<PeerId> Members() const override { return ring_->members(); }
  uint64_t total_keys() const override { return ring_->total_keys(); }
  void CheckInvariants() const override { ring_->CheckInvariants(); }
  uint64_t build_salt() const override { return 0xc08d; }

  /// Stale-route fallback: alternate between the origin's successor and
  /// predecessor ring links.
  PeerId RetryOrigin(PeerId origin, int attempt) const override;

  /// Cache support lives in hash space: the routing coordinate is
  /// HashKey(key), a member's hint interval is its circular ownership arc
  /// (predecessor, chord_id], and the fast-table is a 2^levels-arc finger
  /// prefix of the ring (arc start -> its successor).
  uint64_t RouteCoordOf(Key key) const override;
  bool RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const override;
  void CollectFastTable(int levels,
                        std::vector<cache::FastEntry>* out) const override;
  bool CacheLocalAnswer(PeerId owner, Key key, OpStats* st) override;

  chord::ChordNetwork& chord() { return *ring_; }
  const chord::ChordNetwork& chord() const { return *ring_; }

 protected:
  PeerId DoBootstrap() override;
  void DoJoin(PeerId contact, OpStats* st) override;
  void DoLeave(PeerId leaver, OpStats* st) override;
  void DoInsert(PeerId from, Key key, OpStats* st) override;
  void DoDelete(PeerId from, Key key, OpStats* st) override;
  void DoExactSearch(PeerId from, Key key, OpStats* st) override;

 private:
  std::unique_ptr<chord::ChordNetwork> ring_;
};

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_CHORD_OVERLAY_H_
