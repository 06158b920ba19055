// Old name of sim::Clock, kept only for benchsuite/bench_suite.cc, which
// may not change. New code names sim::Clock (the benchsuite-shims lint
// rule enforces this).
#ifndef BATON_SIM_EVENT_QUEUE_H_
#define BATON_SIM_EVENT_QUEUE_H_

#include "sim/clock.h"

namespace baton {
namespace sim {

using EventQueue = Clock;

}  // namespace sim
}  // namespace baton

#endif  // BATON_SIM_EVENT_QUEUE_H_
