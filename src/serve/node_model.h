// serve::NodeModel: per-node FIFO request queues with a configurable
// service rate -- the contention model of the serving engine.
//
// Every message an operation routes through a peer occupies that peer for
// `service_ticks` of CPU time, and a peer services messages one at a time
// in arrival order. Because service times are fixed and the queue is FIFO,
// a message's waiting time follows directly from the Lindley recursion:
//
//   start(m)      = max(arrival(m), next_free(node))
//   next_free'    = start(m) + service_ticks
//
// so admission is O(1) -- no per-queue-slot events -- while still modelling
// exactly the quantity that matters for serving: time spent waiting behind
// other requests at a busy node. Hop counts never see this; two protocols
// with identical message bills diverge sharply once a Zipf workload drives
// one node's utilization toward 1 (ART, arXiv:1201.2766, makes the same
// point against pure hop-count evaluations).
//
// Queue depth at admission is derived from the backlog: with fixed service
// times, ceil((next_free - arrival) / service_ticks) messages are still
// unserviced ahead of the new arrival (the one in service counts until its
// completion). `max_queue` bounds that backlog: an arrival that would find
// max_queue or more messages ahead is refused, and the engine records the
// owning operation as dropped -- the overload-shedding behaviour of a real
// serving stack.
#ifndef BATON_SERVE_NODE_MODEL_H_
#define BATON_SERVE_NODE_MODEL_H_

#include <cstdint>
#include <vector>

#include "sim/clock.h"

namespace baton {
namespace serve {

class NodeModel {
 public:
  /// `service_ticks` is the per-message occupancy; 0 models infinitely fast
  /// servers (no queueing at all -- useful as a null model).
  explicit NodeModel(uint64_t service_ticks)
      : service_ticks_(service_ticks) {}

  struct Admission {
    sim::Time start = 0;     // when service begins (>= arrival)
    sim::Time done = 0;      // when service completes
    uint64_t ahead = 0;      // unserviced messages ahead at arrival
    bool accepted = true;    // false: queue bound hit, message refused
  };

  /// Admits one message to `node`'s FIFO at time `t`. With `max_queue` > 0
  /// the admission is refused (state untouched) when `max_queue` or more
  /// messages are still unserviced at the node.
  Admission Admit(uint32_t node, sim::Time t, uint64_t max_queue);

  /// Overrides one node's per-message occupancy (heterogeneous fleets:
  /// stragglers, slow racks, gray-failing peers). 0 restores the global
  /// rate. Backlog and busy-tick accounting use the node's own rate, so a
  /// straggler's queue grows while equally-loaded fast peers stay idle --
  /// the tail-at-scale effect the serving papers measure.
  void SetNodeServiceTicks(uint32_t node, uint64_t ticks);
  /// The occupancy `node` charges per message (the global rate unless
  /// overridden).
  uint64_t node_service_ticks(uint32_t node) const {
    return node < overrides_.size() && overrides_[node] != 0
               ? overrides_[node]
               : service_ticks_;
  }

  /// Busiest node by serviced-message count: the bottleneck whose
  /// utilization bounds system capacity.
  uint64_t max_served() const { return max_served_; }
  /// Peak backlog across all nodes -- the headline queue-growth indicator.
  uint64_t max_peak_depth() const { return max_peak_depth_; }
  /// Total service ticks consumed across all nodes.
  uint64_t total_busy_ticks() const { return total_busy_; }

 private:
  struct Node {
    sim::Time next_free = 0;
    uint64_t served = 0;
  };

  uint64_t service_ticks_;
  std::vector<uint64_t> overrides_;  // per-node rate; 0 = global rate
  std::vector<Node> nodes_;
  uint64_t max_served_ = 0;
  uint64_t max_peak_depth_ = 0;
  uint64_t total_busy_ = 0;
};

}  // namespace serve
}  // namespace baton

#endif  // BATON_SERVE_NODE_MODEL_H_
