#include "net/network.h"

#include <algorithm>

#include "sim/latency.h"

namespace baton {
namespace net {

PeerId Network::Register() {
  PeerId id = static_cast<PeerId>(alive_.size());
  alive_.push_back(true);
  frontier_.push_back({});
  ++num_alive_;
  return id;
}

void Network::MarkDead(PeerId p) {
  BATON_CHECK_LT(p, alive_.size());
  if (alive_[p]) {
    alive_[p] = false;
    --num_alive_;
  }
}

void Network::MarkAlive(PeerId p) {
  BATON_CHECK_LT(p, alive_.size());
  if (!alive_[p]) {
    alive_[p] = true;
    ++num_alive_;
  }
}

void Network::Count(PeerId from, PeerId to, MsgType type) {
  BATON_CHECK_LT(from, alive_.size());
  BATON_CHECK_LT(to, alive_.size());
  if (faults_ == nullptr) {
    CountOne(from, to, type, /*dropped=*/false);
    return;
  }
  FaultInjector::Decision d = faults_->OnMessage(from, to, type);
  if (d.drop) ++window_dropped_;
  window_duplicated_ += d.duplicates;
  CountOne(from, to, type, d.drop);
  // Duplicate copies: the fault is extra delivery, not loss, and each copy
  // is a real message -- counted, processed, timed.
  for (uint32_t i = 0; i < d.duplicates; ++i) {
    CountOne(from, to, type, /*dropped=*/false);
  }
}

void Network::CountOne(PeerId from, PeerId to, MsgType type, bool dropped) {
  ++snapshot_.total;
  ++snapshot_.by_type[static_cast<size_t>(type)];
  // Observability event ticks: virtual times on the sim clock when a
  // latency model is attached, otherwise the (just-incremented) global
  // message index -- either way causally ordered and fully deterministic.
  uint64_t send_tick = snapshot_.total;
  uint64_t deliver_tick = snapshot_.total;
  if (sim_clock_ != nullptr) {
    // Critical-path timing: the message departs when its sender last became
    // available in this window (a fresh origin departs at 0), and arrives
    // one latency sample later. Receivers take the max over everything in
    // flight toward them, so parallel fan-out from one sender costs a
    // single latency while sequential relays accumulate.
    sim::Time departs = FrontierAt(from);
    sim::Time arrives = departs + sim_latency_->Sample(&sim_rng_);
    // Counts issued outside any window share the clock position of the
    // last window.
    sim::Time base = std::max(window_start_, sim_clock_->now());
    if (!dropped) {
      // A dropped message advances nothing: the receiver never becomes
      // "available with the answer", so the loss is invisible to the
      // latency accounting until a timeout or retry pays for it above.
      Frontier& f = frontier_[to];
      if (f.epoch != window_epoch_ || arrives > f.at) {
        f = Frontier{window_epoch_, arrives};
      }
      horizon_ = std::max(horizon_, arrives);
      // EndOpWindow advances the clock to the latest delivery.
      ++sim_delivered_;
      last_arrival_ = std::max(last_arrival_, base + arrives);
    }
    send_tick = base + departs;
    deliver_tick = base + arrives;
  }
  if (observer_ != nullptr && !dropped) {
    observer_->OnMessage(from, to, type, send_tick, deliver_tick);
  }
}

void Network::AttachSim(sim::Clock* clock, sim::LatencyModel* latency,
                        uint64_t seed) {
  BATON_CHECK_EQ(clock == nullptr, latency == nullptr)
      << "clock and latency model must be attached together";
  sim_clock_ = clock;
  sim_latency_ = latency;
  sim_rng_ = Rng(seed);
  window_epoch_ = 0;
  window_start_ = clock != nullptr ? clock->now() : 0;
  horizon_ = 0;
  last_arrival_ = 0;
  sim_delivered_ = 0;
  for (Frontier& f : frontier_) f = Frontier{};
}

void Network::BeginOpWindow() {
  if (faults_ != nullptr) {
    window_dropped_ = 0;
    window_duplicated_ = 0;
  }
  if (sim_clock_ == nullptr) return;
  ++window_epoch_;
  window_start_ = sim_clock_->now();
  horizon_ = 0;
}

sim::Time Network::EndOpWindow() {
  if (sim_clock_ == nullptr) return 0;
  sim_clock_->AdvanceTo(last_arrival_);
  sim::Time h = horizon_;
  // Close the window: stray Counts issued before the next BeginOpWindow
  // start from a fresh frontier anchored at the advanced clock, instead of
  // re-applying this window's elapsed time on top of it.
  ++window_epoch_;
  window_start_ = sim_clock_->now();
  horizon_ = 0;
  return h;
}

}  // namespace net
}  // namespace baton
