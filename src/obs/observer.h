// obs::Observer: the one object an Instance attaches to make a run
// observable, and the only writer of its metrics registry. It implements
// net::MessageObserver (every delivered message updates the registry and,
// when tracing, lands in the trace as a child event of the open op span)
// and receives the overlay wrapper's BeginOp/EndOp calls (one span + one
// set of op histograms per public operation).
//
// Attachment mirrors AttachSim: per overlay instance, opt-in, non-owning
// from the network's point of view. With no observer attached every hot
// path is a single null check -- no allocations, byte-identical behaviour.
#ifndef BATON_OBS_OBSERVER_H_
#define BATON_OBS_OBSERVER_H_

#include <memory>

#include "net/message.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace baton {
namespace obs {

class Observer : public net::MessageObserver {
 public:
  /// With `tracing` set the observer also records a full causal trace
  /// (spans + message events); metrics are always collected.
  explicit Observer(bool tracing = false);

  const Registry& metrics() const { return metrics_; }
  /// Null unless constructed with tracing enabled.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }

  /// Scalar outcome of one public operation (the OpStats fields the
  /// observer records; a plain struct so obs/ stays below overlay/).
  struct OpOutcome {
    bool ok = false;
    uint32_t peer = 0;
    int hops = 0;
    uint64_t messages = 0;
    uint64_t latency_ticks = 0;
  };

  // ---- net::MessageObserver -----------------------------------------------
  void OnMessage(net::PeerId from, net::PeerId to, net::MsgType type,
                 uint64_t send_tick, uint64_t deliver_tick) override;

  // ---- Overlay wrapper hooks ----------------------------------------------
  void BeginOp(const char* name, uint64_t tick);
  void EndOp(const char* name, uint64_t tick, const OpOutcome& out);

 private:
  Registry metrics_;
  std::unique_ptr<TraceRecorder> trace_;

  // Hot-path caches into the registry (references stay valid for the
  // registry's lifetime), so OnMessage does no map lookups.
  uint64_t* msgs_total_;
  uint64_t* by_category_[net::kNumMsgCategories];
  std::vector<uint64_t>* msgs_in_;
  std::vector<uint64_t>* msgs_out_;
  std::vector<uint64_t>* routing_touch_;
  std::vector<uint64_t>* restructure_;
  std::vector<uint64_t>* replica_msgs_;
};

}  // namespace obs
}  // namespace baton

#endif  // BATON_OBS_OBSERVER_H_
