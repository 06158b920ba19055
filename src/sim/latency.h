// Link latency models for the simulated network (net::Network::AttachSim).
#ifndef BATON_SIM_LATENCY_H_
#define BATON_SIM_LATENCY_H_

#include <cstdint>

#include "sim/clock.h"
#include "util/check.h"
#include "util/rng.h"

namespace baton {
namespace sim {

/// Latency model interface: ticks a message spends in flight.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;
  virtual Time Sample(Rng* rng) = 0;
};

/// Every message takes exactly `ticks`.
class ConstantLatency : public LatencyModel {
 public:
  explicit ConstantLatency(Time ticks) : ticks_(ticks) {}
  Time Sample(Rng*) override { return ticks_; }

 private:
  Time ticks_;
};

/// Uniform in [lo, hi] — models jitter between peers.
class UniformLatency : public LatencyModel {
 public:
  UniformLatency(Time lo, Time hi) : lo_(lo), hi_(hi) {
    // Inverted bounds would underflow hi - lo + 1 in Sample() and draw from
    // an astronomically large range; reject them up front.
    BATON_CHECK_LE(lo, hi) << "UniformLatency bounds are inverted";
  }
  Time Sample(Rng* rng) override {
    return lo_ + rng->NextBelow(hi_ - lo_ + 1);
  }

 private:
  Time lo_;
  Time hi_;
};

}  // namespace sim
}  // namespace baton

#endif  // BATON_SIM_LATENCY_H_
