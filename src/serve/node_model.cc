#include "serve/node_model.h"

namespace baton {
namespace serve {

void NodeModel::SetNodeServiceTicks(uint32_t node, uint64_t ticks) {
  if (node >= overrides_.size()) overrides_.resize(node + 1, 0);
  overrides_[node] = ticks;
}

NodeModel::Admission NodeModel::Admit(uint32_t node, sim::Time t,
                                      uint64_t max_queue) {
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  Node& n = nodes_[node];
  const uint64_t ticks = node_service_ticks(node);

  Admission adm;
  adm.start = n.next_free > t ? n.next_free : t;
  if (ticks > 0 && n.next_free > t) {
    // Fixed per-node service times make the backlog exact: everything
    // between now and next_free is earlier messages' remaining service, in
    // whole-or-partial units of this node's own rate.
    adm.ahead = (n.next_free - t + ticks - 1) / ticks;
  }
  if (max_queue > 0 && adm.ahead >= max_queue) {
    adm.accepted = false;
    return adm;
  }
  adm.done = adm.start + ticks;
  n.next_free = adm.done;
  ++n.served;
  if (n.served > max_served_) max_served_ = n.served;
  if (adm.ahead > max_peak_depth_) max_peak_depth_ = adm.ahead;
  total_busy_ += ticks;
  return adm;
}

}  // namespace serve
}  // namespace baton
