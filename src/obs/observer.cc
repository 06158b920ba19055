#include "obs/observer.h"

#include <string>

namespace baton {
namespace obs {

Observer::Observer(bool tracing) {
  if (tracing) trace_ = std::make_unique<TraceRecorder>();
  msgs_total_ = &metrics_.Counter("net.messages");
  for (int c = 0; c < net::kNumMsgCategories; ++c) {
    by_category_[c] = &metrics_.Counter(
        std::string("net.msgs.") +
        net::MsgCategoryName(static_cast<net::MsgCategory>(c)));
  }
  msgs_in_ = &metrics_.PerNode("node.msgs_in");
  msgs_out_ = &metrics_.PerNode("node.msgs_out");
  routing_touch_ = &metrics_.PerNode("node.routing_touch");
  restructure_ = &metrics_.PerNode("node.restructure");
  replica_msgs_ = &metrics_.PerNode("node.replica_msgs");
}

void Observer::OnMessage(net::PeerId from, net::PeerId to, net::MsgType type,
                         uint64_t send_tick, uint64_t deliver_tick) {
  ++*msgs_total_;
  net::MsgCategory cat = net::CategoryOf(type);
  ++*by_category_[static_cast<int>(cat)];
  Registry::IncNode(msgs_out_, from);
  Registry::IncNode(msgs_in_, to);
  // Derived per-node views of the message stream: maintenance deliveries
  // are routing-table touches, restructure/redistribute deliveries count
  // position moves, replication-category traffic tracks replica bytes.
  if (cat == net::MsgCategory::kMaintenance) {
    Registry::IncNode(routing_touch_, to);
  } else if (type == net::MsgType::kRestructureShift ||
             type == net::MsgType::kD3Redistribute) {
    Registry::IncNode(restructure_, to);
  } else if (cat == net::MsgCategory::kReplication) {
    Registry::IncNode(replica_msgs_, to);
  }
  if (trace_ != nullptr) {
    trace_->AddMessage(from, to, static_cast<uint16_t>(type), send_tick,
                       deliver_tick);
  }
}

void Observer::BeginOp(const char* name, uint64_t tick) {
  if (trace_ != nullptr) trace_->BeginSpan(name, tick);
}

void Observer::EndOp(const char* name, uint64_t tick, const OpOutcome& out) {
  std::string prefix = std::string("op.") + name;
  ++metrics_.Counter(prefix + ".count");
  if (out.ok) ++metrics_.Counter(prefix + ".ok");
  if (out.hops >= 0) {
    metrics_.Hist(prefix + ".hops").Add(static_cast<uint64_t>(out.hops));
  }
  metrics_.Hist(prefix + ".messages").Add(out.messages);
  metrics_.Hist(prefix + ".latency_ticks").Add(out.latency_ticks);
  if (trace_ != nullptr) {
    trace_->EndSpan(tick, out.ok, out.peer, out.hops, out.messages,
                    out.latency_ticks);
  }
}

}  // namespace obs
}  // namespace baton
