// The simulated physical network: a peer registry plus message accounting.
//
// Protocol implementations (BATON, Chord, multiway tree) must route every
// inter-peer interaction through Network::Count(from, to, type); this is the
// instrument behind every figure in the paper ("We use number of passing
// messages to measure the performance of the system").
//
// The network also provides:
//  * liveness tracking (peers can fail; sending to a dead peer is a wasted
//    message that the caller must detect and recover from),
//  * an optional latency attachment: with a sim::Clock + LatencyModel
//    attached, Count() also samples the message's link latency and
//    maintains a per-peer "message available at" frontier, so an
//    operation's critical-path time (sequential hops add, parallel fan-out
//    takes the max over branches) can be read out per measurement window,
//    and EndOpWindow advances the clock to the operation's completion.
//    Message counters are unaffected, and no protocol rng is touched: with
//    no model attached, behaviour is bit-for-bit identical to a build
//    without latency support,
//  * fault-injection and observer hooks: the fault hook is consulted once
//    per counted message, the observer told of each delivered one.
//
// Per-peer load tallies (Fig. 8(f)) are an observer's job, and the delayed
// link updates of Fig. 8(i) are queued by BATON itself.
#ifndef BATON_NET_NETWORK_H_
#define BATON_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "sim/clock.h"
#include "util/check.h"
#include "util/rng.h"

namespace baton {
namespace sim {
class LatencyModel;
}  // namespace sim

namespace net {

using PeerId = uint32_t;
inline constexpr PeerId kNullPeer = static_cast<PeerId>(-1);

/// Outcome of an exact-match search, the same shape on every backend.
struct SearchResult {
  PeerId node = kNullPeer;  // node whose range contains the key
  bool found = false;       // true if the key is stored there
  int hops = 0;
};

/// Outcome of a range query [lo, hi), the same shape on every
/// order-preserving backend.
struct RangeResult {
  std::vector<PeerId> nodes;  // nodes intersecting the range, left to right
  uint64_t matches = 0;       // stored keys in [lo, hi)
  int hops = 0;
};

/// Observability hook: one callback per delivered message (a message the
/// fault plan dropped is counted but reported to no observer). Implemented
/// by obs::Observer; net/ only sees this interface so the layering stays
/// net <- obs <- overlay. `send_tick`/`deliver_tick` are virtual times on
/// the attached sim::Clock when there is one; otherwise both equal the
/// global message index, which still orders every event causally.
class MessageObserver {
 public:
  virtual ~MessageObserver() = default;
  virtual void OnMessage(PeerId from, PeerId to, MsgType type,
                         uint64_t send_tick, uint64_t deliver_tick) = 0;
};

/// Fault-injection hook: consulted once per counted message, before any
/// delivery bookkeeping. Implemented by fault::Plan; net/ only sees this
/// interface so the layering stays net <- fault <- overlay. With no
/// injector attached (the default, see AttachFaults) the counting path
/// pays one null check and behaviour is byte-identical to a build without
/// fault support.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// What the network does to one message.
  struct Decision {
    /// Lost in transit: the message is still paid for by the sender (it
    /// occupies the wire), but the receiver never processes it and its
    /// arrival advances no availability frontier.
    bool drop = false;
    /// Extra identical copies delivered -- each is a real message: counted,
    /// processed by the receiver, timed.
    uint32_t duplicates = 0;
  };
  virtual Decision OnMessage(PeerId from, PeerId to, MsgType type) = 0;

  /// Nothing calls this. It stays only because benchsuite/bench_suite.cc
  /// (line 374), which may not change, overrides it.
  virtual void OnOpBegin() {}
};

/// Cheap value snapshot of the counters; diff two snapshots to get the cost
/// of one operation.
struct CounterSnapshot {
  uint64_t total = 0;
  std::array<uint64_t, kNumMsgTypes> by_type{};
};

class Network {
 public:
  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- Peer registry -------------------------------------------------------
  /// Registers a new peer and returns its id. Ids are never reused.
  PeerId Register();
  void MarkDead(PeerId p);
  void MarkAlive(PeerId p);
  bool IsAlive(PeerId p) const {
    BATON_CHECK_LT(p, alive_.size());
    return alive_[p];
  }
  size_t num_registered() const { return alive_.size(); }
  size_t num_alive() const { return num_alive_; }

  // ---- Message accounting --------------------------------------------------
  /// Records one message from -> to. `to` may be dead (the message is still
  /// paid for; callers use IsAlive to model timeout detection).
  void Count(PeerId from, PeerId to, MsgType type);

  uint64_t total_messages() const { return snapshot_.total; }
  uint64_t MessagesOfType(MsgType t) const {
    return snapshot_.by_type[static_cast<size_t>(t)];
  }

  CounterSnapshot Snapshot() const { return snapshot_; }
  static uint64_t Delta(const CounterSnapshot& before,
                        const CounterSnapshot& after) {
    return after.total - before.total;
  }
  static uint64_t DeltaOfType(const CounterSnapshot& before,
                              const CounterSnapshot& after, MsgType t) {
    size_t i = static_cast<size_t>(t);
    return after.by_type[i] - before.by_type[i];
  }

  // ---- Simulated latency (sim/ attachment) ---------------------------------
  /// Attaches a latency model: every subsequent Count() samples a link
  /// latency and advances the receiver's availability frontier, and
  /// EndOpWindow moves `clock` to the latest arrival. `clock` and `latency`
  /// are non-owning and must outlive the attachment; pass nullptr for both
  /// to detach. `seed` seeds the latency-sampling rng, which is independent
  /// of every protocol rng (message counts and protocol decisions are
  /// byte-identical with or without an attachment).
  void AttachSim(sim::Clock* clock, sim::LatencyModel* latency,
                 uint64_t seed);
  bool sim_attached() const { return sim_clock_ != nullptr; }

  /// Opens a measurement window: the per-peer frontier resets (every peer
  /// is immediately available) and critical-path accounting restarts. O(1).
  void BeginOpWindow();
  /// Advances the clock to the latest arrival of any message counted since
  /// the last EndOpWindow (the operation's completion time), and returns
  /// the window's critical-path length in ticks: max over all messages of
  /// their arrival time, where a message departs when its sender last
  /// became available. Returns 0 when no latency model is attached.
  sim::Time EndOpWindow();
  /// Messages delivered under the latency model since AttachSim (every
  /// counted message that was not dropped).
  uint64_t sim_delivered() const { return sim_delivered_; }

  // ---- Observability (obs/ attachment) -------------------------------------
  /// Attaches a message observer: every subsequent Count() reports each
  /// delivered message (with its virtual send/deliver ticks) to `obs`.
  /// Non-owning; pass nullptr to detach. Opt-in like AttachSim: with no
  /// observer attached the counting path is untouched -- no allocations,
  /// identical behaviour.
  void AttachObserver(MessageObserver* obs) { observer_ = obs; }
  MessageObserver* observer() const { return observer_; }

  /// The clock observability events are stamped with: the attached
  /// sim::Clock's time, otherwise the global message index.
  uint64_t ObsClock() const {
    return sim_clock_ != nullptr ? sim_clock_->now() : snapshot_.total;
  }

  // ---- Fault injection (fault/ attachment) ---------------------------------
  /// Attaches a fault injector: every subsequent Count() first asks `f`
  /// whether the message is dropped or duplicated. Non-owning;
  /// pass nullptr to detach. Opt-in like AttachSim/AttachObserver: detached
  /// (the default) the counting path is one null check and all output is
  /// byte-identical to a build without fault support.
  void AttachFaults(FaultInjector* f) {
    faults_ = f;
    window_dropped_ = 0;
    window_duplicated_ = 0;
  }
  FaultInjector* faults() const { return faults_; }

  /// Messages dropped / duplicated since the last BeginOpWindow. Always 0
  /// with no injector attached; the overlay resilience policy reads these
  /// per attempt to decide whether an operation's answer can be trusted.
  uint64_t window_dropped() const { return window_dropped_; }
  uint64_t window_duplicated() const { return window_duplicated_; }

 private:
  std::vector<bool> alive_;
  size_t num_alive_ = 0;

  CounterSnapshot snapshot_;

  MessageObserver* observer_ = nullptr;

  // ---- fault attachment state ----
  /// Counts one message (plus bookkeeping) with an already-made fault
  /// decision; Count() splits delivery from decision so duplicate copies
  /// reuse the same path.
  void CountOne(PeerId from, PeerId to, MsgType type, bool dropped);

  FaultInjector* faults_ = nullptr;
  uint64_t window_dropped_ = 0;
  uint64_t window_duplicated_ = 0;

  // ---- sim attachment state ----
  /// "Message available at" frontier entry: the virtual time (relative to
  /// the current window's start) at which the peer received its latest
  /// message. Epoch-stamped so BeginOpWindow resets all peers in O(1).
  struct Frontier {
    uint64_t epoch = 0;
    sim::Time at = 0;
  };
  sim::Time FrontierAt(PeerId p) const {
    const Frontier& f = frontier_[p];
    return f.epoch == window_epoch_ ? f.at : 0;
  }

  sim::Clock* sim_clock_ = nullptr;
  sim::LatencyModel* sim_latency_ = nullptr;
  Rng sim_rng_{0};
  std::vector<Frontier> frontier_;
  uint64_t window_epoch_ = 0;
  sim::Time window_start_ = 0;  // clock time when the window opened
  sim::Time horizon_ = 0;       // critical path of the current window
  sim::Time last_arrival_ = 0;  // clock time of the latest delivery so far
  uint64_t sim_delivered_ = 0;
};

}  // namespace net
}  // namespace baton

#endif  // BATON_NET_NETWORK_H_
