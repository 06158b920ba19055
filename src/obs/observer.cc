#include "obs/observer.h"

#include <map>
#include <string>

#include "util/json.h"

namespace baton {
namespace obs {

namespace {

/// Bumps family[node], growing the vector as new peers register.
void IncNode(std::vector<uint64_t>* family, uint32_t node) {
  if (node >= family->size()) family->resize(node + 1, 0);
  ++(*family)[node];
}

void AppendHistJson(std::ostream& out, const LogHistogram& h) {
  out << "{\"count\": " << h.count() << ", \"mean\": " << h.Mean()
      << ", \"p50\": " << h.Quantile(0.50) << ", \"p90\": " << h.Quantile(0.90)
      << ", \"p99\": " << h.Quantile(0.99) << ", \"max\": " << h.max() << "}";
}

/// Writes `rows` as the members of one JSON object, in name order.
template <typename T, typename WriteValue>
void AppendMembers(std::ostream& out, const std::map<std::string, T>& rows,
                   WriteValue&& write_value) {
  bool first = true;
  for (const auto& [name, value] : rows) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": ";
    write_value(value);
    first = false;
  }
}

}  // namespace

LogHistogram NodeLoad(const std::vector<uint64_t>& family, size_t n) {
  LogHistogram dist;
  for (size_t i = 0; i < n; ++i) dist.Add(i < family.size() ? family[i] : 0);
  return dist;
}

Observer::Observer(bool tracing) {
  if (tracing) trace_ = std::make_unique<TraceRecorder>();
}

void Observer::OnMessage(net::PeerId from, net::PeerId to, net::MsgType type,
                         uint64_t send_tick, uint64_t deliver_tick) {
  ++messages_;
  net::MsgCategory cat = net::CategoryOf(type);
  ++by_category_[static_cast<size_t>(cat)];
  IncNode(&msgs_out_, from);
  IncNode(&msgs_in_, to);
  // Derived per-node views of the message stream: maintenance deliveries
  // are routing-table touches, restructure/redistribute deliveries count
  // position moves, replication-category traffic tracks replica bytes.
  if (cat == net::MsgCategory::kMaintenance) {
    IncNode(&routing_touch_, to);
  } else if (type == net::MsgType::kRestructureShift ||
             type == net::MsgType::kD3Redistribute) {
    IncNode(&restructure_, to);
  } else if (cat == net::MsgCategory::kReplication) {
    IncNode(&replica_msgs_, to);
  }
  if (trace_ != nullptr) {
    trace_->AddMessage(from, to, static_cast<uint16_t>(type), send_tick,
                       deliver_tick);
  }
}

void Observer::BeginOp(OpKind kind, uint64_t tick) {
  if (trace_ != nullptr) trace_->BeginSpan(kind, tick);
}

void Observer::EndOp(OpKind kind, uint64_t tick, const OpOutcome& out) {
  ops_[static_cast<size_t>(kind)].Add(out);
  if (trace_ != nullptr) trace_->EndSpan(tick, out);
}

void Observer::AppendJson(std::ostream& out) const {
  std::map<std::string, uint64_t> counters = {{"net.messages", messages_}};
  for (int c = 0; c < net::kNumMsgCategories; ++c) {
    counters[std::string("net.msgs.") +
             net::MsgCategoryName(static_cast<net::MsgCategory>(c))] =
        by_category_[static_cast<size_t>(c)];
  }
  std::map<std::string, const LogHistogram*> hists;
  for (int k = 0; k < kNumOpKinds; ++k) {
    const OpTally& t = ops_[static_cast<size_t>(k)];
    if (t.count == 0) continue;
    const std::string op =
        std::string("op.") + OpKindName(static_cast<OpKind>(k));
    counters[op + ".count"] = t.count;
    if (t.ok > 0) counters[op + ".ok"] = t.ok;
    hists[op + ".hops"] = &t.hops_hist;
    hists[op + ".messages"] = &t.messages_hist;
    hists[op + ".latency_ticks"] = &t.latency_hist;
  }
  const std::map<std::string, const std::vector<uint64_t>*> families = {
      {"node.msgs_in", &msgs_in_},
      {"node.msgs_out", &msgs_out_},
      {"node.routing_touch", &routing_touch_},
      {"node.restructure", &restructure_},
      {"node.replica_msgs", &replica_msgs_}};

  out << "{\"counters\": {";
  AppendMembers(out, counters, [&](uint64_t v) { out << v; });
  // Schema 2 has always carried a gauges object; nothing sets a gauge.
  out << "}, \"gauges\": {}, \"histograms\": {";
  AppendMembers(out, hists,
                [&](const LogHistogram* h) { AppendHistJson(out, *h); });
  out << "}, \"per_node\": {";
  AppendMembers(out, families, [&](const std::vector<uint64_t>* family) {
    LogHistogram dist = NodeLoad(*family, family->size());
    out << "{\"nodes\": " << family->size() << ", \"sum\": " << dist.sum()
        << ", \"mean\": " << dist.Mean() << ", \"max\": " << dist.max()
        << ", \"p50\": " << dist.Quantile(0.50)
        << ", \"p99\": " << dist.Quantile(0.99) << "}";
  });
  out << "}}";
}

}  // namespace obs
}  // namespace baton
