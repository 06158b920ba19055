// serve::Engine: batched, pipelined query execution over any overlay
// backend -- the subsystem that turns the simulator from a cost model into
// a serving model.
//
// workload::Replay runs each operation to completion alone: it measures
// what one isolated request costs, which is exactly the paper's Fig 8
// methodology and exactly NOT what serving millions of concurrent users
// looks like. The engine instead accepts a whole trace of operations with
// an arrival time each (serve::Arrivals, open loop) and interleaves their
// hop-by-hop progress on one virtual timeline:
//
//  1. When its arrival comes due, an op is admitted: the overlay executes
//     it through the same workload::ApplyOp the sequential Replay uses
//     (same rng draw discipline, same member bookkeeping, same OpStats),
//     while the engine, attached as the network's message observer for the
//     run, records the receiver of each message the operation sends.
//  2. Those receivers, in send order, become the op's hop chain: hop k is
//     delivered to its receiver one tick after hop k-1 finished service,
//     waits in that node's FIFO queue (serve::NodeModel) behind every other
//     in-flight op's messages, is serviced for service_ticks, and only then
//     releases hop k+1. Ops race each other at hot nodes: queueing delay --
//     not hop count -- is what separates backends under skewed load.
//  3. When an op's last hop completes service, its sojourn time
//     (completion - arrival) lands in a log-bucketed histogram; drops
//     (queue bound exceeded) and timeouts (sojourn past a deadline) are
//     counted as first-class overload outcomes.
//
// The event loop is the engine's own. Arrival times are read through a
// cursor: the time of op i+1 is drawn from Arrivals::Next() only once op i
// is admitted. Every in-flight op has exactly one pending event -- its next
// hop's delivery or its current hop's service completion -- on a per-tick
// calendar (serve::TickCalendar): a power-of-two ring of FIFO lists, one
// per tick from the current one, threaded through a link per trace op and
// doubled when a service completion lands past its end. Ordering contract:
// events run in tick order; at an equal tick, due arrivals come first, in
// trace order, then continuations in the order they were scheduled. The
// calendar keeps that order by construction: nothing is ever scheduled
// before the current tick, the calendar never advances past the next
// arrival's tick, and each tick's list is taken in scheduling order. So
// scheduling and taking an event compare nothing and allocate nothing, and
// pending-event memory is the ring -- the longest backlog in ticks -- plus
// one link per trace op, not a record per op in flight.
//
// Hops are serviced in causal send order, one service chain per op:
// fan-out bursts serialize at their receivers rather than racing in
// parallel. That is deliberate -- every message occupies its receiver for
// service_ticks of CPU no matter how parallel the wire is, and it is the
// receiver occupancy that saturates first. The sim/ critical-path
// attachment (OpStats::latency_ticks) remains the fan-out-aware wire-time
// model; the two compose because the engine never touches the network's
// sim::Clock: a latency model attached with AttachLatency times each op
// inside its admission, on its own clock.
//
// Closed-loop mode (RunClosedLoop) admits op i+1 only when op i has fully
// drained -- today's one-at-a-time semantics on the serving timeline. Its
// per-op aggregates match workload::Replay exactly BY CONSTRUCTION (shared
// ApplyOp, same rng stream), which is the differential-testing anchor: the
// engine provably adds a queueing model without changing what the overlay
// does.
//
// Determinism: one op rng stream (caller-provided, Replay-compatible),
// arrival processes own their rng, and the ordering contract above fixes
// every tie. Identical inputs give identical timelines, drops and
// histograms on every run and thread count.
#ifndef BATON_SERVE_ENGINE_H_
#define BATON_SERVE_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/log_histogram.h"
#include "overlay/overlay.h"
#include "serve/arrivals.h"
#include "serve/node_model.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "workload/replay.h"

namespace baton {
namespace serve {

struct EngineConfig {
  /// Ticks a node spends servicing each message (see serve::NodeModel).
  uint64_t service_ticks = 1;
  /// Max unserviced messages at a node before arrivals are refused and the
  /// owning op is dropped; 0 = unbounded queues.
  uint64_t max_queue = 0;
  /// Ops whose sojourn exceeds this count as timed out (they still complete
  /// and are measured -- the timeout models a client giving up, not the
  /// system aborting work). 0 = no deadline.
  sim::Time timeout_ticks = 0;
  /// Replay options shared with workload::Replay (answer recording).
  workload::ReplayOptions replay;
  /// Per-node service-rate overrides (node id -> occupancy ticks), applied
  /// to every run's NodeModel: a heterogeneous fleet where the listed
  /// nodes are slower (stragglers) or faster than cfg.service_ticks. See
  /// NodeModel::SetNodeServiceTicks.
  std::vector<std::pair<uint32_t, uint64_t>> node_service_overrides;
};

struct EngineResult {
  /// Per-op aggregates with workload::Replay's exact semantics (counts,
  /// message bills, hop totals, histograms). In closed-loop mode this is
  /// bit-identical to what Replay would have produced on the same inputs.
  workload::ReplayResult replay;

  // ---- Serving outcomes ----------------------------------------------------
  uint64_t admitted = 0;   // ops the overlay executed
  uint64_t completed = 0;  // ops whose full hop chain drained
  uint64_t dropped = 0;    // ops shed at an over-bound node queue
  uint64_t timed_out = 0;  // completed ops whose sojourn exceeded the deadline

  /// Virtual time at which the last hop drained -- the run's horizon; the
  /// denominator of achieved throughput.
  sim::Time makespan = 0;

  /// Per-completed-op sojourn time (completion - arrival), the serving
  /// latency distribution behind the p50/p99/p99.9 columns.
  obs::LogHistogram sojourn;
  /// Completion tick of every completed op, in completion (= time) order.
  /// completed/makespan under-reports steady-state throughput on short runs
  /// (the makespan includes the final ops' drain tail); a rate taken over
  /// an inner completion window -- e.g. the middle 80% -- converges much
  /// faster, and this vector is what benches compute it from.
  std::vector<sim::Time> completions;
  /// Per-message waiting time in node queues (service start - arrival).
  obs::LogHistogram queue_wait;

  // ---- Bottleneck view (from the NodeModel) --------------------------------
  uint64_t max_node_served = 0;   // busiest node's serviced-message count
  uint64_t peak_queue_depth = 0;  // deepest backlog any node ever reached
  uint64_t total_service_ticks = 0;
};

class Engine {
 public:
  /// `ov` and `members` follow workload::Replay's contract (bootstrapped
  /// overlay, non-empty member list, joiners appended / leavers erased).
  /// Both pointers are non-owning. Every outcome of a run is returned in
  /// its EngineResult.
  Engine(overlay::Overlay* ov, std::vector<net::PeerId>* members,
         const EngineConfig& cfg);

  /// Open-loop run: op i is admitted at `arrivals`' i-th arrival time,
  /// whether or not earlier ops have drained. `op_rng` is the Replay-
  /// compatible operation stream (origins/contacts/victims).
  EngineResult Run(const workload::Trace& trace, Arrivals* arrivals,
                   Rng* op_rng);

  /// Closed-loop run: op i+1 is admitted when op i's hop chain has fully
  /// drained -- the differential-testing mode whose replay aggregates match
  /// workload::Replay exactly.
  EngineResult RunClosedLoop(const workload::Trace& trace, Rng* op_rng);

 private:
  struct RunState;

  EngineResult RunInternal(const workload::Trace& trace, Arrivals* arrivals,
                           Rng* op_rng, bool closed_loop);

  overlay::Overlay* ov_;
  std::vector<net::PeerId>* members_;
  EngineConfig cfg_;
};

}  // namespace serve
}  // namespace baton

#endif  // BATON_SERVE_ENGINE_H_
