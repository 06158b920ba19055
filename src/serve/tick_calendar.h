// serve::TickCalendar: the serving engine's pending events, kept as one FIFO
// list per virtual tick.
//
// The engine schedules every event at or after the current tick and takes
// them in (tick, scheduling order). A calendar yields that order without
// comparing anything: a power-of-two ring holds one list per tick from the
// current one, Push appends an id to its tick's list, and PopBefore walks
// the ring tick by tick, taking each list from its head. The lists are
// threaded through one link per id -- a dense key the caller owns, pending
// at most once at a time -- so Push and PopBefore are O(1) (plus one step
// per empty tick passed) and allocate nothing. When an event lands past the
// ring's end the ring doubles until it fits, and each pending list moves to
// its tick's slot in the larger ring. Memory is the ring, sized by the
// farthest any event was scheduled ahead, plus four bytes per id -- not a
// record per pending event.
#ifndef BATON_SERVE_TICK_CALENDAR_H_
#define BATON_SERVE_TICK_CALENDAR_H_

#include <cstdint>
#include <vector>

#include "sim/clock.h"
#include "util/check.h"

namespace baton {
namespace serve {

class TickCalendar {
 public:
  /// An empty calendar at tick 0 for ids in [0, ids).
  explicit TickCalendar(size_t ids) : link_(ids, kNone), ring_(kInitialTicks) {
    BATON_CHECK_LT(ids, kNone) << "calendar ids are 32-bit";
  }

  /// The current tick; no pending event lies before it.
  sim::Time now() const { return now_; }

  /// Schedules `id` at `tick` (>= now()), behind every id already there.
  void Push(sim::Time tick, uint32_t id) {
    if (tick - now_ > mask_) Grow(tick);
    link_[id] = kNone;
    List& l = ring_[tick & mask_];
    if (l.head == kNone) {
      l.head = id;
    } else {
      link_[l.tail] = id;
    }
    l.tail = id;
    ++pending_;
  }

  /// Takes the first id of the earliest tick before `limit` into `*id` and
  /// moves now() to that tick. With nothing due before `limit`, returns
  /// false and leaves now() at `limit` (>= now()).
  bool PopBefore(sim::Time limit, uint32_t* id) {
    BATON_DCHECK(limit >= now_);
    if (pending_ == 0) {
      now_ = limit;
      return false;
    }
    for (; now_ < limit; ++now_) {
      List& l = ring_[now_ & mask_];
      if (l.head == kNone) continue;
      *id = l.head;
      l.head = link_[l.head];
      if (l.head == kNone) l.tail = kNone;
      --pending_;
      return true;
    }
    return false;
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr size_t kInitialTicks = 64;

  struct List {
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };

  /// Doubles the ring until it reaches `tick`. Pending ticks all lie in
  /// [now(), now() + old size), so each list moves from its tick's old slot
  /// to that tick's new one. A tick before now() wraps to a distance past
  /// any ring, so this is also where it is refused.
  void Grow(sim::Time tick) {
    BATON_CHECK_GE(tick, now_) << "scheduled before the current tick";
    size_t ticks = ring_.size();
    while (ticks <= tick - now_) ticks *= 2;
    std::vector<List> ring(ticks);
    for (sim::Time t = now_; t < now_ + ring_.size(); ++t) {
      ring[t & (ticks - 1)] = ring_[t & mask_];
    }
    ring_.swap(ring);
    mask_ = ticks - 1;
  }

  std::vector<uint32_t> link_;  // by id: the next id on its tick's list
  std::vector<List> ring_;      // by tick & mask_, ticks [now_, now_ + size)
  sim::Time mask_ = kInitialTicks - 1;
  sim::Time now_ = 0;
  size_t pending_ = 0;
};

}  // namespace serve
}  // namespace baton

#endif  // BATON_SERVE_TICK_CALENDAR_H_
