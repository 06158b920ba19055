#include "obs/trace.h"

#include "net/message.h"
#include "util/check.h"
#include "util/json.h"

namespace baton {
namespace obs {

void TraceRecorder::BeginSpan(OpKind kind, uint64_t tick) {
  BATON_CHECK(!span_open_) << "op spans do not nest (open: "
                           << OpKindName(open_.kind)
                           << ", opening: " << OpKindName(kind) << ")";
  open_ = OpSpan{};
  open_.kind = kind;
  open_.begin = tick;
  span_open_ = true;
}

void TraceRecorder::EndSpan(uint64_t tick, const OpOutcome& out) {
  BATON_CHECK(span_open_) << "EndSpan without a matching BeginSpan";
  open_.end = tick;
  open_.out = out;
  spans_.push_back(open_);
  span_open_ = false;
}

void TraceRecorder::AddMessage(uint32_t from, uint32_t to, uint16_t type,
                               uint64_t send, uint64_t deliver) {
  msgs_.push_back(MsgEvent{send, deliver, from, to, type});
}

void WriteChromeTrace(std::ostream& out,
                      const std::vector<TraceProcess>& processes) {
  out << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&]() {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  for (size_t pid = 0; pid < processes.size(); ++pid) {
    const TraceProcess& proc = processes[pid];
    sep();
    out << " {\"ph\": \"M\", \"pid\": " << pid
        << ", \"name\": \"process_name\", \"args\": {\"name\": \""
        << JsonEscape(proc.label) << "\"}}";
    for (const OpSpan& s : proc.recorder->spans()) {
      sep();
      out << " {\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": 0, \"ts\": "
          << s.begin << ", \"dur\": " << (s.end - s.begin) << ", \"cat\": "
          << "\"op\", \"name\": \"" << OpKindName(s.kind)
          << "\", \"args\": {\"ok\": " << (s.out.ok ? "true" : "false")
          << ", \"peer\": " << s.out.peer << ", \"hops\": " << s.out.hops
          << ", \"messages\": " << s.out.messages
          << ", \"latency_ticks\": " << s.out.latency_ticks << "}}";
    }
    for (const MsgEvent& m : proc.recorder->messages()) {
      sep();
      out << " {\"ph\": \"i\", \"s\": \"t\", \"pid\": " << pid
          << ", \"tid\": 0, \"ts\": " << m.deliver << ", \"cat\": \"msg\", "
          << "\"name\": \""
          << net::MsgTypeName(static_cast<net::MsgType>(m.type))
          << "\", \"args\": {\"from\": " << m.from << ", \"to\": " << m.to
          << ", \"send\": " << m.send << "}}";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace obs
}  // namespace baton
