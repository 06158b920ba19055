// Deterministic fault injection for the simulated network, plus the
// resilience budget the overlay layer uses to absorb it.
//
// BATON's whole claim (VLDB 2005) is tolerating "frequent node joins and
// departures" -- but the paper's network delivers every message perfectly.
// A fault::Plan attaches at the net::Network message boundary
// (Network::AttachFaults) and decides, per counted message, whether it is
// dropped or duplicated: baseline probabilities for every message, with
// per-category overrides (e.g. lose only query traffic). Correlated
// failures are a membership event (workload::OpType::kFailRegion), not a
// message fault.
//
// Everything is driven by one seeded rng: the same plan config, seed and
// message sequence produce the identical fault schedule, so every fault
// experiment reproduces byte-for-byte.
//
// fault::Policy is the recovery half: the bounded-retry / timeout /
// backoff budget the overlay measured wrapper enforces on read operations
// (see overlay::Overlay::SetResilience). Keeping both halves in one layer
// lets benches sweep injection rate against retry budget symmetrically.
#ifndef BATON_FAULT_FAULT_H_
#define BATON_FAULT_FAULT_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "sim/clock.h"
#include "util/rng.h"

namespace baton {
namespace fault {

/// Per-message fault probabilities for one class of links. Probabilities
/// are independent coins: a message can be both dropped and duplicated.
struct LinkFaults {
  double drop = 0.0;       // P(message lost in transit)
  double duplicate = 0.0;  // P(one extra copy delivered)
};

/// Static configuration of a fault plan.
struct PlanConfig {
  uint64_t seed = 0;
  /// Baseline faults applied to every message (a per-category override
  /// replaces it for its category; see Plan::SetCategoryFaults).
  LinkFaults all;
};

/// A deterministic, seeded fault schedule. Attach with
/// overlay->AttachFaults(&plan) (or net->AttachFaults directly); detach
/// before destroying the plan. Not thread-safe: one plan per instance,
/// like the sim and obs attachments.
class Plan : public net::FaultInjector {
 public:
  explicit Plan(const PlanConfig& cfg);

  /// Replaces the baseline faults for one message category (e.g. drop only
  /// kQuery traffic so overlay construction is unaffected).
  void SetCategoryFaults(net::MsgCategory c, const LinkFaults& f);

  // net::FaultInjector implementation.
  Decision OnMessage(net::PeerId from, net::PeerId to,
                     net::MsgType type) override;

  // Cumulative accounting, for reports and tests.
  uint64_t dropped() const { return dropped_; }
  uint64_t duplicated() const { return duplicated_; }

 private:
  /// The faults in force per MsgCategory: the baseline unless
  /// SetCategoryFaults replaced it.
  std::vector<LinkFaults> by_category_;

  Rng rng_;
  uint64_t dropped_ = 0;
  uint64_t duplicated_ = 0;
};

/// Resilience budget enforced by the overlay measured wrapper when a fault
/// plan is attached. Read operations (exact/range search) whose attempt
/// lost a message -- or overran the timeout -- are retried up to
/// max_retries times with deterministic exponential backoff, optionally
/// re-originating from a neighbour of the stale origin
/// (Overlay::RetryOrigin); an exhausted budget returns
/// Status::Unavailable with OpStats::gave_up set. Mutating operations are
/// never retried (the protocols repair state through their own recovery
/// paths); their absorbed faults set OpStats::degraded instead.
struct Policy {
  int max_retries = 0;
  /// Per-attempt critical-path budget in ticks; 0 disables the timeout
  /// check (drops alone then drive retries). Only meaningful with a
  /// latency model attached -- without one every attempt measures 0 ticks.
  sim::Time timeout_ticks = 0;
  /// Backoff charged to latency before retry k (1-based):
  /// backoff_ticks << (k-1).
  sim::Time backoff_ticks = 0;
  /// Re-resolve the origin via the backend's parent/adjacent links on each
  /// retry instead of re-asking the same (possibly stale/partitioned)
  /// origin.
  bool reroute = true;

  sim::Time BackoffFor(int attempt) const {
    if (backoff_ticks == 0 || attempt <= 0) return 0;
    int shift = attempt - 1;
    if (shift > 32) shift = 32;  // deterministic clamp; budgets are small
    return backoff_ticks << shift;
  }
};

}  // namespace fault
}  // namespace baton

#endif  // BATON_FAULT_FAULT_H_
