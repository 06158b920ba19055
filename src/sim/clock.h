// Virtual clock for the simulated network. net::Network advances it to the
// completion of every measured operation (see Network::EndOpWindow); the
// caller owns it and reads now() between operations.
#ifndef BATON_SIM_CLOCK_H_
#define BATON_SIM_CLOCK_H_

#include <cstdint>

namespace baton {
namespace sim {

using Time = uint64_t;

class Clock {
 public:
  Time now() const { return now_; }
  /// Moves the clock to `t`; a `t` in the past leaves it where it is.
  void AdvanceTo(Time t) {
    if (t > now_) now_ = t;
  }

 private:
  Time now_ = 0;
};

}  // namespace sim
}  // namespace baton

#endif  // BATON_SIM_CLOCK_H_
