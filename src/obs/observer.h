// obs::Observer: the one object an Instance attaches to make a run
// observable. It implements net::MessageObserver (every delivered message
// bumps the message counters and the per-node families and, when tracing,
// lands in the trace as a child event of the open op span) and receives the
// overlay wrapper's BeginOp/EndOp calls (one span and one OpTally sample per
// public operation).
//
// Its state is typed: a delivered-message total and one count per
// net::MsgCategory; one OpTally per OpKind; five per-node families indexed
// by PeerId (messages in and out, routing-table touches, restructure
// participation and replica traffic), the load distribution ART
// (arXiv:1201.2766) and D3-Tree (arXiv:1503.07905) argue their case on.
// AppendJson writes them as the --metrics snapshot, named
//   net.messages | net.msgs.<category>        counters
//   op.<name>.count | op.<name>.ok            counters, once the op has run
//   op.<name>.hops|messages|latency_ticks     histograms, likewise
//   node.<family>                             per-node families
//
// Attachment mirrors AttachSim: per overlay instance, opt-in, non-owning
// from the network's point of view. With no observer attached every hot
// path is a single null check -- no allocations, byte-identical behaviour.
#ifndef BATON_OBS_OBSERVER_H_
#define BATON_OBS_OBSERVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "obs/log_histogram.h"
#include "obs/trace.h"

namespace baton {
namespace obs {

/// Operations of one kind: how many ran, how many succeeded, and one sample
/// per op in each distribution.
struct OpTally {
  uint64_t count = 0;
  uint64_t ok = 0;
  LogHistogram hops_hist;
  LogHistogram messages_hist;
  LogHistogram latency_hist;

  /// Books one op. A negative hops sentinel (a backend may report one on a
  /// failed op) counts as 0 hops, since a raw cast would wrap to ~2^64.
  void Add(const OpOutcome& out) {
    ++count;
    if (out.ok) ++ok;
    hops_hist.Add(out.hops > 0 ? static_cast<uint64_t>(out.hops) : 0);
    messages_hist.Add(out.messages);
    latency_hist.Add(out.latency_ticks);
  }
};

/// Distribution of one per-node family across nodes [0, n), absent entries
/// counting as 0: the load-balance view, whose max against Mean() is the
/// skew factor and Quantile(0.99) the p99 node load.
LogHistogram NodeLoad(const std::vector<uint64_t>& family, size_t n);

class Observer : public net::MessageObserver {
 public:
  /// With `tracing` set the observer also records a full causal trace
  /// (spans + message events); metrics are always collected.
  explicit Observer(bool tracing = false);

  /// Null unless constructed with tracing enabled.
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }

  /// Messages delivered while attached, in all and per category.
  uint64_t messages() const { return messages_; }
  uint64_t messages(net::MsgCategory c) const {
    return by_category_[static_cast<size_t>(c)];
  }
  const OpTally& op(OpKind k) const { return ops_[static_cast<size_t>(k)]; }
  /// Messages received per peer, indexed by PeerId; a peer past the end
  /// received none. (The other four families are read through AppendJson.)
  const std::vector<uint64_t>& msgs_in() const { return msgs_in_; }

  /// JSON object {"counters":{...},"gauges":{},"histograms":{name:
  /// {count,mean,p50,p90,p99,max}},"per_node":{family:{nodes,sum,mean,max,
  /// p50,p99}}}, names sorted: the --metrics snapshot. Deterministic.
  void AppendJson(std::ostream& out) const;

  // ---- net::MessageObserver -----------------------------------------------
  void OnMessage(net::PeerId from, net::PeerId to, net::MsgType type,
                 uint64_t send_tick, uint64_t deliver_tick) override;

  // ---- Overlay wrapper hooks ----------------------------------------------
  void BeginOp(OpKind kind, uint64_t tick);
  void EndOp(OpKind kind, uint64_t tick, const OpOutcome& out);

 private:
  std::unique_ptr<TraceRecorder> trace_;
  uint64_t messages_ = 0;
  std::array<uint64_t, net::kNumMsgCategories> by_category_{};
  std::array<OpTally, kNumOpKinds> ops_{};
  std::vector<uint64_t> msgs_in_;
  std::vector<uint64_t> msgs_out_;
  std::vector<uint64_t> routing_touch_;
  std::vector<uint64_t> restructure_;
  std::vector<uint64_t> replica_msgs_;
};

}  // namespace obs
}  // namespace baton

#endif  // BATON_OBS_OBSERVER_H_
