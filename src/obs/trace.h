// obs::TraceRecorder: causal, message-level operation tracing. The overlay's
// measured wrapper opens one span per public operation; net::Network emits a
// child event per delivered message carrying (from, to, type, send tick,
// deliver tick). WriteChromeTrace serializes any number of recorders into
// one Chrome trace-event JSON file (the {"traceEvents": [...]} flavor),
// loadable in Perfetto / chrome://tracing, one "process" per recorder.
//
// Ticks are virtual: with a sim/ latency model attached they are the
// network's critical-path clock; without one they fall back to the global
// message index, which still orders every event causally. The writer emits
// ticks as Chrome's microsecond timestamps verbatim and contains no
// wall-clock or pointer values, so the same seed always produces a
// byte-identical file.
#ifndef BATON_OBS_TRACE_H_
#define BATON_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

namespace baton {
namespace obs {

/// The public overlay operations the measured wrapper books, one tally and
/// one span kind each.
enum class OpKind : uint8_t {
  kJoin,
  kLeave,
  kFail,
  kRecover,
  kInsert,
  kDelete,
  kExact,
  kRange,
};
inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kRange) + 1;

/// Lowercase op names, indexed by OpKind: span names and the "op.<name>.*"
/// metric rows.
inline constexpr const char* kOpKindNames[] = {
    "join", "leave", "fail", "recover", "insert", "delete", "exact", "range",
};
static_assert(std::size(kOpKindNames) == kNumOpKinds,
              "kOpKindNames needs exactly one name per OpKind");

constexpr const char* OpKindName(OpKind k) {
  return kOpKindNames[static_cast<size_t>(k)];
}

/// Outcome of one public operation: the OpStats fields the observer
/// records (a plain struct so obs/ stays below overlay/).
struct OpOutcome {
  bool ok = false;
  uint32_t peer = 0;  // operation-specific peer from OpStats
  int hops = 0;
  uint64_t messages = 0;
  uint64_t latency_ticks = 0;
};

/// One public overlay operation, bracketed by the measured wrapper.
struct OpSpan {
  OpKind kind = OpKind::kJoin;
  uint64_t begin = 0;  // tick at operation start
  uint64_t end = 0;    // tick at operation completion
  OpOutcome out;
};

/// One delivered message, causally inside the span that was open when it was
/// sent.
struct MsgEvent {
  uint64_t send = 0;     // tick the sender dispatched it
  uint64_t deliver = 0;  // tick the receiver saw it
  uint32_t from = 0;
  uint32_t to = 0;
  uint16_t type = 0;     // net::MsgType
};

class TraceRecorder {
 public:
  /// Opens a span; public overlay operations never nest, so at most one
  /// span is open at a time (CHECK-enforced).
  void BeginSpan(OpKind kind, uint64_t tick);
  void EndSpan(uint64_t tick, const OpOutcome& out);
  void AddMessage(uint32_t from, uint32_t to, uint16_t type, uint64_t send,
                  uint64_t deliver);

  /// Completed spans == public operations executed while recording.
  size_t span_count() const { return spans_.size(); }
  size_t message_count() const { return msgs_.size(); }
  const std::vector<OpSpan>& spans() const { return spans_; }
  const std::vector<MsgEvent>& messages() const { return msgs_; }

 private:
  std::vector<OpSpan> spans_;
  std::vector<MsgEvent> msgs_;
  OpSpan open_;
  bool span_open_ = false;
};

/// One trace-viewer "process": a labelled recorder (e.g. "baton N=200
/// seed=0" for one bench task).
struct TraceProcess {
  std::string label;
  const TraceRecorder* recorder;
};

/// Writes all processes into one Chrome trace-event JSON document. Op spans
/// become complete ("ph":"X") events with cat "op" -- their number equals
/// the operations executed -- and messages become instant ("ph":"i") events
/// with cat "msg" at their deliver tick, args carrying from/to/send.
void WriteChromeTrace(std::ostream& out,
                      const std::vector<TraceProcess>& processes);

}  // namespace obs
}  // namespace baton

#endif  // BATON_OBS_TRACE_H_
