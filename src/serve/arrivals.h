// serve::Arrivals: open-loop arrival processes for the serving engine.
//
// An arrival process decides WHEN each request enters the system,
// independently of how fast the system drains them -- the defining property
// of open-loop load generation. Closed-loop measurement (one op at a time,
// the next admitted when the previous completes) hides overload entirely:
// the generator slows down with the system, so queues never build. The
// paper's Fig 8 numbers are all closed-loop in this sense. Open-loop
// arrival at a fixed offered load is what exposes the saturation knee,
// queue growth and tail-latency divergence the serving engine exists to
// measure.
//
// Each process owns its rng (seeded at construction), so arrival timing is
// deterministic per seed and never perturbs the operation rng stream the
// engine shares with workload::Replay -- the same trail of overlay ops is
// replayed whatever the arrival pattern.
#ifndef BATON_SERVE_ARRIVALS_H_
#define BATON_SERVE_ARRIVALS_H_

#include <cstdint>

#include "sim/clock.h"
#include "util/check.h"
#include "util/rng.h"

namespace baton {
namespace serve {

/// Arrival-time source: Next() returns the absolute virtual tick of the
/// next request, non-decreasing across calls.
class Arrivals {
 public:
  virtual ~Arrivals() = default;
  virtual sim::Time Next() = 0;
};

/// Deterministic fixed-rate arrivals: one request every `1/rate_per_tick`
/// ticks (tracked in double precision so fractional gaps accumulate without
/// drift; emitted times round to the containing tick).
class FixedArrivals : public Arrivals {
 public:
  explicit FixedArrivals(double rate_per_tick) : gap_(1.0 / rate_per_tick) {
    BATON_CHECK_GT(rate_per_tick, 0.0);
  }
  sim::Time Next() override {
    sim::Time t = static_cast<sim::Time>(next_);
    next_ += gap_;
    return t;
  }

 private:
  double gap_;
  double next_ = 0.0;
};

/// Poisson process at `rate_per_tick`: exponential interarrival gaps, the
/// standard memoryless model of many independent clients. Burstier than
/// FixedArrivals at the same offered load, so queues form earlier.
class PoissonArrivals : public Arrivals {
 public:
  PoissonArrivals(double rate_per_tick, uint64_t seed);
  sim::Time Next() override;

 private:
  double mean_gap_;
  double next_ = 0.0;
  Rng rng_;
};

}  // namespace serve
}  // namespace baton

#endif  // BATON_SERVE_ARRIVALS_H_
