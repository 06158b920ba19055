#include "serve/engine.h"

#include <limits>
#include <utility>

#include "serve/tick_calendar.h"
#include "util/check.h"

namespace baton {
namespace serve {

using workload::AppliedOp;
using workload::Op;

namespace {

/// In-flight ticks per hop: the link latency between one hop's service
/// completion and the next hop's delivery.
constexpr sim::Time kHopLatency = 1;

/// No arrival left: the calendar may run to its last event.
constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();

/// One admitted operation's serving state: its arrival tick, its hop chain
/// -- the slice [next, end) of the run's flat receiver vector, which `next`
/// walks as service completions release successive hops -- and what its one
/// pending calendar event does.
struct InFlight {
  enum class Stage : uint8_t {
    kDeliver,   // hop `next` reaches its receiver's queue
    kServiced,  // the receiver finished servicing hop `next`
  };
  sim::Time arrival = 0;
  uint32_t next = 0;
  uint32_t end = 0;
  Stage pending = Stage::kDeliver;
};
static_assert(sizeof(InFlight) == 24, "one per trace op: keep it small");

}  // namespace

/// Whole-run state. Lives on RunInternal's stack, so concurrent engines on
/// a bench worker pool never share anything. During a run it is the
/// network's observer: every delivered message's receiver is appended to
/// `hops`, and the call goes on to the observer attached before the run.
struct Engine::RunState : net::MessageObserver {
  RunState(const Engine& e, const workload::Trace& t, Rng* rng,
           net::MessageObserver* outer, bool closed)
      : ov(*e.ov_),
        members(e.members_),
        cfg(e.cfg_),
        trace(t),
        op_rng(rng),
        chained(outer),
        closed_loop(closed),
        calendar(t.size()),
        nodes(e.cfg_.service_ticks),
        ops(t.size()) {}
  // The network holds this object's address for the whole run.
  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  overlay::Overlay& ov;
  std::vector<net::PeerId>* members;
  const EngineConfig& cfg;
  const workload::Trace& trace;
  Rng* op_rng;
  net::MessageObserver* chained;  // nullptr when none was attached
  bool closed_loop;

  sim::Time now = 0;
  TickCalendar calendar;          // one pending event per op, by trace index
  NodeModel nodes;
  EngineResult res;
  std::vector<InFlight> ops;      // by trace index
  std::vector<net::PeerId> hops;  // every admitted op's receivers, in order
  size_t next_admission = 0;      // closed loop: next trace index to admit

  void OnMessage(net::PeerId from, net::PeerId to, net::MsgType type,
                 uint64_t send_tick, uint64_t deliver_tick) override {
    hops.push_back(to);
    if (chained != nullptr) {
      chained->OnMessage(from, to, type, send_tick, deliver_tick);
    }
  }

  void Schedule(sim::Time at, size_t idx, InFlight::Stage stage) {
    ops[idx].pending = stage;
    calendar.Push(at, static_cast<uint32_t>(idx));
  }

  /// Drives the run until no op is in flight and no arrival is left.
  void Loop(Arrivals* arrivals);
  /// Admits trace op `i` at `now`: the overlay executes it synchronously
  /// (Replay semantics via ApplyOp), and the receivers it appended to
  /// `hops` become the op's hop chain. Returns true when a chain is now in
  /// flight.
  bool Admit(size_t i);
  /// Closed loop: walks the trace from `from`, admitting until one op puts
  /// a chain in flight (its end resumes the walk) or the trace ends.
  void AdmitClosedFrom(size_t from);
  /// Hop arrival at its receiver: join the node's FIFO, or be shed at the
  /// queue bound and drop the op.
  void Deliver(size_t idx);
  /// Service completion: release the next hop, or finish the op.
  void Serviced(size_t idx);
  /// Op `idx`'s chain finished (completed) or was shed (dropped); in
  /// closed-loop mode this also resumes admission.
  void Finish(size_t idx, bool completed);
};

void Engine::RunState::Loop(Arrivals* arrivals) {
  // Open loop reads arrivals through a cursor: op `arriving` is due at
  // `arrival_at`, and the next time is drawn only once it is admitted.
  // Closed loop has no arrivals; each finished op admits the next.
  size_t arriving = trace.size();
  sim::Time arrival_at = 0;
  if (closed_loop) {
    AdmitClosedFrom(0);
  } else if (!trace.empty()) {
    arriving = 0;
    arrival_at = arrivals->Next();
  }
  for (;;) {
    // Continuations run up to, not at, the next arrival's tick: an arrival
    // wins a tie, as it would in one queue holding every arrival up front.
    const bool arrival_left = arriving < trace.size();
    uint32_t idx = 0;
    if (calendar.PopBefore(arrival_left ? arrival_at : kNever, &idx)) {
      now = calendar.now();
      if (ops[idx].pending == InFlight::Stage::kDeliver) {
        Deliver(idx);
      } else {
        Serviced(idx);
      }
      continue;
    }
    if (!arrival_left) return;
    now = arrival_at;
    Admit(arriving);
    if (++arriving < trace.size()) {
      sim::Time t = arrivals->Next();
      BATON_CHECK_GE(t, arrival_at) << "arrival times must be non-decreasing";
      arrival_at = t;
    }
  }
}

bool Engine::RunState::Admit(size_t i) {
  const Op& op = trace[i];
  const size_t first = hops.size();
  const AppliedOp applied = workload::ApplyOp(ov, op, op_rng, members);
  if (!res.replay.Record(op, applied, cfg.replay.record_answers)) {
    return false;
  }
  ++res.admitted;

  BATON_CHECK_LE(hops.size(), UINT32_MAX)
      << "hop chains index receivers in 32 bits";
  InFlight& fl = ops[i];
  fl.arrival = now;
  fl.next = static_cast<uint32_t>(first);
  fl.end = static_cast<uint32_t>(hops.size());
  if (fl.next == fl.end) {
    // Origin answered locally: no messages, no service demand.
    ++res.completed;
    res.sojourn.Add(0);
    res.completions.push_back(now);
    return false;
  }
  Schedule(now + kHopLatency, i, InFlight::Stage::kDeliver);
  return true;
}

void Engine::RunState::AdmitClosedFrom(size_t from) {
  for (size_t i = from; i < trace.size(); ++i) {
    if (Admit(i)) {
      next_admission = i + 1;
      return;
    }
  }
  next_admission = trace.size();
}

void Engine::RunState::Deliver(size_t idx) {
  NodeModel::Admission adm =
      nodes.Admit(hops[ops[idx].next], now, cfg.max_queue);
  if (!adm.accepted) {
    ++res.dropped;  // the rest of the chain is abandoned
    Finish(idx, /*completed=*/false);
    return;
  }
  res.queue_wait.Add(adm.start - now);
  Schedule(adm.done, idx, InFlight::Stage::kServiced);
}

void Engine::RunState::Serviced(size_t idx) {
  InFlight& op = ops[idx];
  if (++op.next < op.end) {
    Schedule(now + kHopLatency, idx, InFlight::Stage::kDeliver);
    return;
  }
  Finish(idx, /*completed=*/true);
}

void Engine::RunState::Finish(size_t idx, bool completed) {
  if (completed) {
    sim::Time sojourn = now - ops[idx].arrival;
    ++res.completed;
    res.sojourn.Add(sojourn);
    res.completions.push_back(now);
    if (cfg.timeout_ticks > 0 && sojourn > cfg.timeout_ticks) {
      ++res.timed_out;
    }
  }
  if (closed_loop) AdmitClosedFrom(next_admission);
}

Engine::Engine(overlay::Overlay* ov, std::vector<net::PeerId>* members,
               const EngineConfig& cfg)
    : ov_(ov), members_(members), cfg_(cfg) {
  BATON_CHECK(ov != nullptr);
  BATON_CHECK(members != nullptr);
}

EngineResult Engine::Run(const workload::Trace& trace, Arrivals* arrivals,
                         Rng* op_rng) {
  BATON_CHECK(arrivals != nullptr);
  return RunInternal(trace, arrivals, op_rng, /*closed_loop=*/false);
}

EngineResult Engine::RunClosedLoop(const workload::Trace& trace,
                                   Rng* op_rng) {
  return RunInternal(trace, /*arrivals=*/nullptr, op_rng,
                     /*closed_loop=*/true);
}

EngineResult Engine::RunInternal(const workload::Trace& trace,
                                 Arrivals* arrivals, Rng* op_rng,
                                 bool closed_loop) {
  BATON_CHECK(!members_->empty())
      << "Engine needs a bootstrapped overlay with at least one member";

  // Capture every message the overlay sends during an admission, chaining
  // to whatever observer (obs::Observer, usually) was already attached so
  // instrumentation keeps working underneath the engine. A latency model
  // attached to the network (AttachLatency) keeps timing individual ops on
  // its own clock; the engine never touches it.
  net::Network* net = ov_->network();
  RunState st(*this, trace, op_rng, net->observer(), closed_loop);
  net->AttachObserver(&st);
  for (const auto& [node, ticks] : cfg_.node_service_overrides) {
    st.nodes.SetNodeServiceTicks(node, ticks);
  }
  st.Loop(arrivals);

  st.res.makespan = st.now;
  st.res.max_node_served = st.nodes.max_served();
  st.res.peak_queue_depth = st.nodes.max_peak_depth();
  st.res.total_service_ticks = st.nodes.total_busy_ticks();

  // Restore the observer chain the engine spliced itself into.
  net->AttachObserver(st.chained);

  return std::move(st.res);
}

}  // namespace serve
}  // namespace baton
