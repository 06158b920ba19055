#include "serve/arrivals.h"

#include <cmath>

namespace baton {
namespace serve {

PoissonArrivals::PoissonArrivals(double rate_per_tick, uint64_t seed)
    : mean_gap_(1.0 / rate_per_tick), rng_(seed) {
  BATON_CHECK_GT(rate_per_tick, 0.0);
}

sim::Time PoissonArrivals::Next() {
  sim::Time t = static_cast<sim::Time>(next_);
  // Exponential interarrival via inversion; 1 - U keeps the argument of log
  // strictly positive (NextDouble() is in [0, 1)).
  next_ += -std::log(1.0 - rng_.NextDouble()) * mean_gap_;
  return t;
}

}  // namespace serve
}  // namespace baton
