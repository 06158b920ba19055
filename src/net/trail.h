// net::MessageTrail: a MessageObserver that records the (from, to, type)
// sequence of every delivered message, optionally forwarding each event to a
// previously attached observer so instrumentation stacks instead of
// displacing each other.
//
// The serving engine uses one of these to decompose a synchronously
// executed overlay operation into its hop sequence: the protocol code runs
// unchanged, and the recorded trail -- in exact Count() order, which is the
// causal send order -- becomes the per-hop event schedule.
#ifndef BATON_NET_TRAIL_H_
#define BATON_NET_TRAIL_H_

#include <vector>

#include "net/message.h"
#include "net/network.h"

namespace baton {
namespace net {

class MessageTrail : public MessageObserver {
 public:
  struct Hop {
    PeerId from;
    PeerId to;
    MsgType type;
  };

  /// Forward every event to `chained` after recording it (nullptr = none).
  explicit MessageTrail(MessageObserver* chained = nullptr)
      : chained_(chained) {}

  void OnMessage(PeerId from, PeerId to, MsgType type, uint64_t send_tick,
                 uint64_t deliver_tick) override {
    hops_.push_back({from, to, type});
    if (chained_ != nullptr) {
      chained_->OnMessage(from, to, type, send_tick, deliver_tick);
    }
  }

  const std::vector<Hop>& hops() const { return hops_; }
  void Clear() { hops_.clear(); }
  MessageObserver* chained() const { return chained_; }

 private:
  std::vector<Hop> hops_;
  MessageObserver* chained_;
};

}  // namespace net
}  // namespace baton

#endif  // BATON_NET_TRAIL_H_
