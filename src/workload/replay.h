// workload::Replay: drive ANY overlay backend through a recorded operation
// trace and aggregate per-operation OpStats. This is the overlay-generic
// driver the comparison benches and the cross-backend differential tests
// are built on: one trace, N backends, comparable numbers.
//
// Replay draws exactly one rng value per trace op (origin / contact /
// victim selection), before any capability check, so two backends replaying
// the same trace with equal-seeded rngs see identical random streams even
// when one of them skips unsupported ops. That is what makes answer sets
// directly comparable across backends.
#ifndef BATON_WORKLOAD_REPLAY_H_
#define BATON_WORKLOAD_REPLAY_H_

#include <array>
#include <cstdint>
#include <vector>

#include "net/network.h"
#include "obs/observer.h"
#include "overlay/overlay.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace baton {
namespace workload {

/// Leaves and failures are skipped while the overlay has at most this many
/// members (a trace must not shrink the overlay away underneath itself).
inline constexpr size_t kMinMembers = 4;

struct ReplayOptions {
  /// Record per-query answers (found bits, range match counts) for
  /// cross-backend differential comparison.
  bool record_answers = false;
};

/// Per-OpType aggregate of the OpStats the overlay reported: the observer's
/// per-op tally (executed ops, ok ops, and one hops/messages/latency sample
/// per executed op, so replays report p50/p90/p99 and not just means) plus
/// the replay's own dispositions and resilience outcomes. The histograms
/// are empty for an OpType the trace never executed, and every Mean*/
/// quantile then reads 0.
struct OpAggregate : obs::OpTally {
  uint64_t found = 0;        // searches that found stored keys
  uint64_t skipped = 0;      // guarded by kMinMembers
  uint64_t unsupported = 0;  // backend lacks the capability

  // Resilience outcomes (all zero without a fault plan attached).
  uint64_t retries = 0;       // total OpStats::retries
  uint64_t timeouts = 0;      // total OpStats::timeouts
  uint64_t gave_up = 0;       // ops that exhausted the retry budget
  uint64_t degraded = 0;      // ops that completed by absorbing faults
  uint64_t dropped_msgs = 0;  // total messages lost across ops

  /// Folds one executed op's stats into the aggregate.
  void Accumulate(const overlay::OpStats& st);

  double MeanMessages() const { return messages_hist.Mean(); }
  double MeanHops() const { return hops_hist.Mean(); }
  /// Mean simulated critical-path ticks per op (0 unless the overlay had a
  /// latency model attached during the replay).
  double MeanLatency() const { return latency_hist.Mean(); }
};

struct AppliedOp;

struct ReplayResult {
  std::array<OpAggregate, kNumOpTypes> per_op{};

  /// With ReplayOptions::record_answers: one entry per kExact op (was the
  /// key stored?) and per kRange op (stored keys in the range), in trace
  /// order. Two backends holding the same key set must produce identical
  /// vectors -- the differential-test contract.
  std::vector<bool> exact_found;
  std::vector<uint64_t> range_matches;

  const OpAggregate& of(OpType t) const {
    return per_op[static_cast<size_t>(t)];
  }

  /// Books one op that went through ApplyOp: its disposition into the op
  /// type's aggregate, an executed op's stats into the aggregate, and (with
  /// `record_answers`) its answer. Returns whether the op executed. Replay
  /// and the serving engine share this bookkeeping.
  bool Record(const Op& op, const AppliedOp& applied, bool record_answers);
};

/// Outcome of driving one trace op through an overlay via ApplyOp.
struct AppliedOp {
  /// What happened to the op, mirroring the OpAggregate bookkeeping:
  /// kExecuted ops carry `stats`; kSkipped ops were guarded by
  /// kMinMembers; kUnsupported ops hit a capability gate.
  enum class Disposition : uint8_t { kExecuted, kSkipped, kUnsupported };
  Disposition disposition = Disposition::kExecuted;
  overlay::OpStats stats;

  bool executed() const { return disposition == Disposition::kExecuted; }
};

/// Executes ONE trace op against `ov` with Replay's exact semantics: one
/// rng draw before any capability/guard check (cross-backend stream
/// alignment), kMinMembers guards on kLeave/kFail, RecoverAllFailures
/// folded into kFail and kFailRegion (recovery messages are charged to the
/// failure's aggregate), and `members` maintained across membership
/// changes. Replay is a loop over this function; the
/// serving engine admits ops through it one event at a time -- sharing the
/// implementation is what makes the engine's closed-loop mode match Replay
/// aggregates exactly, by construction.
AppliedOp ApplyOp(overlay::Overlay& ov, const Op& op, Rng* rng,
                  std::vector<net::PeerId>* members);

/// Replays `trace` against `ov`, picking op origins/contacts/victims from
/// `members` via `rng` and maintaining `members` across membership changes
/// (joiners appended, leavers/victims erased) -- the same bookkeeping every
/// hand-wired bench loop used to carry.
ReplayResult Replay(overlay::Overlay& ov, const Trace& trace, Rng* rng,
                    std::vector<net::PeerId>* members,
                    const ReplayOptions& opts = {});

}  // namespace workload
}  // namespace baton

#endif  // BATON_WORKLOAD_REPLAY_H_
