#include "overlay/overlay.h"

#include <utility>

namespace baton {
namespace overlay {
namespace {

/// The policy in force while no fault plan is attached: one attempt, no
/// timeout.
const fault::Policy kNoPolicy{};

}  // namespace

/// Runs `fn(origin, &st)` inside a sim measurement window, so st.messages
/// is the exact message cost of the operation and st.latency_ticks its
/// simulated critical-path time (0 with no latency model attached),
/// whatever the backend did inside. With an observer attached the whole
/// operation is additionally bracketed as one causal span of kind `op`, and
/// its outcome feeds that kind's tally.
template <typename Fn>
OpStats Overlay::Measured(obs::OpKind op, PeerId origin, bool retryable,
                          Fn&& fn) {
  net::Network* net = network();
  OpStats st;
  const uint64_t before = net->total_messages();
  if (obs_ != nullptr) obs_->BeginOp(op, net->ObsClock());
  RunAttempts(net, origin, retryable, fn, &st);
  st.messages = net->total_messages() - before;
  if (obs_ != nullptr) obs_->EndOp(op, net->ObsClock(), st.outcome());
  return st;
}

/// One resilience-policy run: attempts until the answer is trustworthy
/// (no message of the attempt was dropped, and it beat the timeout) or the
/// retry budget runs out. Mutating operations (`retryable == false`) take
/// exactly one attempt and report absorbed faults as degraded service --
/// re-issuing a join or insert could double-apply state, and the protocols
/// repair damage through their own recovery paths instead. The policy only
/// applies while a fault plan is attached; otherwise the default policy
/// makes this a single attempt that nothing can reject.
template <typename Fn>
void Overlay::RunAttempts(net::Network* net, PeerId origin, bool retryable,
                          Fn&& fn, OpStats* st) {
  const fault::Policy& pol =
      net->faults() != nullptr ? resilience_ : kNoPolicy;
  const int attempts = 1 + (retryable ? pol.max_retries : 0);
  uint64_t total_latency = 0;
  uint64_t dup_msgs = 0;
  PeerId from = origin;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++st->retries;
      total_latency += pol.BackoffFor(attempt);
      if (pol.reroute && origin != kNullPeer) {
        from = RetryOrigin(origin, attempt);
      }
    }
    OpStats att;
    net->BeginOpWindow();
    fn(from, &att);
    att.latency_ticks = net->EndOpWindow();
    total_latency += att.latency_ticks;
    uint64_t drops = net->window_dropped();
    dup_msgs += net->window_duplicated();
    st->dropped_msgs += drops;
    // Cache interactions are real (and billed) whether or not the attempt
    // is accepted, so they accumulate across attempts.
    st->cache_hits += att.cache_hits;
    st->cache_stale += att.cache_stale;
    st->hops_saved += att.hops_saved;
    // An attempt that lost any message cannot prove its answer reached
    // anyone (the loss may have been the reply); one that overran the
    // timeout is discarded by the impatient caller. Either way: retry.
    bool lost = retryable && drops > 0;
    bool late = retryable && pol.timeout_ticks > 0 &&
                att.latency_ticks > pol.timeout_ticks;
    if (late) ++st->timeouts;
    if (!lost && !late) {
      st->status = std::move(att.status);
      st->peer = att.peer;
      st->found = att.found;
      st->matches = att.matches;
      st->nodes = att.nodes;
      st->hops = att.hops;
      st->latency_ticks = total_latency;
      st->degraded = st->retries > 0 || st->dropped_msgs > 0 || dup_msgs > 0;
      return;
    }
  }
  st->gave_up = true;
  st->degraded = true;
  st->latency_ticks = total_latency;
  st->status = Status::Unavailable(
      "retry budget exhausted under fault injection");
}

std::string CapabilitiesToString(uint32_t caps) {
  static constexpr struct {
    Capability bit;
    const char* name;
  } kNames[] = {
      {kRangeSearch, "range"},   {kFailRecovery, "fail"},
      {kLoadBalance, "balance"}, {kReplication, "replicate"},
      {kOrderedGrowth, "ordered"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((caps & bit) == 0) continue;
    if (!out.empty()) out += ",";
    out += name;
  }
  return out.empty() ? "-" : out;
}

PeerId Overlay::Bootstrap() { return DoBootstrap(); }

PeerId Overlay::RetryOrigin(PeerId origin, int attempt) const {
  (void)attempt;
  return origin;
}

OpStats Overlay::Join(PeerId contact) {
  OpStats st = Measured(obs::OpKind::kJoin, contact, /*retryable=*/false,
                        [&](PeerId c, OpStats* s) { DoJoin(c, s); });
  if (cache_ == nullptr || !st.ok()) return st;
  // The joiner's interval was carved out of an existing member's: routes
  // covering it now point at the wrong peer.
  uint64_t lo = 0;
  uint64_t hi = 0;
  if (RouteHint(st.peer, &lo, &hi)) cache_->InvalidateRange(lo, hi);
  // Any membership change outdates the replicated fast-table; every node's
  // mirror refreshes lazily on its next cold lookup.
  cache_->BumpVersion();
  return st;
}

OpStats Overlay::Leave(PeerId leaver) {
  return Departure(obs::OpKind::kLeave, leaver, &Overlay::DoLeave);
}

OpStats Overlay::Fail(PeerId victim) {
  return Departure(obs::OpKind::kFail, victim, &Overlay::DoFail);
}

OpStats Overlay::Departure(obs::OpKind op, PeerId peer,
                           void (Overlay::*depart)(PeerId, OpStats*)) {
  // The interval must be read before the peer hands it over.
  uint64_t lo = 0;
  uint64_t hi = 0;
  const bool hinted = cache_ != nullptr && RouteHint(peer, &lo, &hi);
  OpStats st = Measured(op, kNullPeer, /*retryable=*/false,
                        [&](PeerId, OpStats* s) { (this->*depart)(peer, s); });
  if (cache_ == nullptr || !st.ok()) return st;
  if (hinted) cache_->InvalidateRange(lo, hi);
  cache_->InvalidatePeer(peer);
  cache_->BumpVersion();
  return st;
}

OpStats Overlay::RecoverAllFailures() {
  OpStats st = Measured(obs::OpKind::kRecover, kNullPeer, /*retryable=*/false,
                        [&](PeerId, OpStats* s) { DoRecoverAllFailures(s); });
  if (cache_ != nullptr && st.ok()) cache_->BumpVersion();
  return st;
}

OpStats Overlay::Insert(PeerId from, Key key) {
  return Measured(obs::OpKind::kInsert, from, /*retryable=*/false,
                  [&](PeerId f, OpStats* st) { DoInsert(f, key, st); });
}

OpStats Overlay::Delete(PeerId from, Key key) {
  return Measured(obs::OpKind::kDelete, from, /*retryable=*/false,
                  [&](PeerId f, OpStats* st) { DoDelete(f, key, st); });
}

OpStats Overlay::ExactSearch(PeerId from, Key key) {
  return Measured(obs::OpKind::kExact, from, /*retryable=*/true,
                  [&](PeerId f, OpStats* st) { CacheAwareExact(f, key, st); });
}

OpStats Overlay::RangeSearch(PeerId from, Key lo, Key hi) {
  return Measured(obs::OpKind::kRange, from, /*retryable=*/true,
                  [&](PeerId f, OpStats* st) { DoRangeSearch(f, lo, hi, st); });
}

void Overlay::DoFail(PeerId victim, OpStats* st) {
  (void)victim;
  st->status = Unsupported("Fail");
}

void Overlay::DoRecoverAllFailures(OpStats* st) {
  st->status = Unsupported("RecoverAllFailures");
}

void Overlay::DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st) {
  (void)from;
  (void)lo;
  (void)hi;
  st->status = Unsupported("RangeSearch");
}

Status Overlay::Unsupported(const char* op) const {
  return Status::FailedPrecondition(name() + " does not support " + op);
}

uint64_t Overlay::RouteCoordOf(Key key) const {
  return static_cast<uint64_t>(key);
}

bool Overlay::RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const {
  (void)peer;
  (void)lo;
  (void)hi;
  return false;
}

void Overlay::CollectFastTable(int levels,
                               std::vector<cache::FastEntry>* out) const {
  (void)levels;
  (void)out;
}

bool Overlay::CacheLocalAnswer(PeerId owner, Key key, OpStats* st) {
  (void)owner;
  (void)key;
  (void)st;
  return false;
}

void Overlay::CacheAwareExact(PeerId from, Key key, OpStats* st) {
  cache::Manager* c = cache_;
  if (c == nullptr) {
    DoExactSearch(from, key, st);
    return;
  }
  net::Network* net = network();
  const uint64_t rk = RouteCoordOf(key);
  // Route cache first: on a hit, one probe message jumps straight at the
  // remembered owner, who answers iff it still owns rk. A refuted hit has
  // already paid the probe (honest accounting), evicts the entry, and runs
  // the normal walk below.
  cache::RouteEntry hint;
  int slot = c->Lookup(from, rk, &hint);
  if (slot >= 0 && hint.owner != from) {
    net->Count(from, hint.owner, net::MsgType::kCacheProbe);
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (net->IsAlive(hint.owner) && RouteHint(hint.owner, &lo, &hi) &&
        cache::RangeContains(lo, hi, rk)) {
      if (!CacheLocalAnswer(hint.owner, key, st)) {
        DoExactSearch(hint.owner, key, st);
      }
      st->hops += 1;  // the verified jump
      st->cache_hits += 1;
      if (hint.cost > st->hops) st->hops_saved += hint.cost - st->hops;
      c->NoteHit();
      return;
    }
    c->EvictStale(from, slot);
    st->cache_stale += 1;
  } else if (slot < 0) {
    c->NoteMiss();
  }
  PeerId start = from;
  int jump = 0;
  if (c->fast_enabled()) {
    if (c->NeedsRefresh(from)) {
      if (c->SnapshotStale()) {
        std::vector<cache::FastEntry> snap;
        CollectFastTable(c->config().root_levels, &snap);
        c->InstallSnapshot(std::move(snap));
      }
      // Lazy refresh: each live fast-table node ships its region to the
      // consulting node, billed as maintenance traffic inside this op.
      uint64_t billed = 0;
      for (const cache::FastEntry& fe : c->fast_entries()) {
        if (fe.peer == from || !net->IsAlive(fe.peer)) continue;
        net->Count(fe.peer, from, net::MsgType::kCacheRefresh);
        ++billed;
      }
      c->MarkRefreshed(from, billed);
    }
    const cache::FastEntry* fe = c->FastLookup(rk);
    if (fe != nullptr && fe->peer != from && net->IsAlive(fe->peer)) {
      net->Count(from, fe->peer, net::MsgType::kCacheProbe);
      start = fe->peer;
      jump = 1;
      c->NoteFastHit();
    }
  }
  DoExactSearch(start, key, st);
  st->hops += jump;
  // Learn the completed route at the origin: the owner's current interval
  // is the fact a later lookup can jump on. Zero-hop answers (the origin
  // already owned the key) teach nothing a jump could improve.
  if (st->ok() && st->peer != kNullPeer && st->peer != from) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (RouteHint(st->peer, &lo, &hi) && cache::RangeContains(lo, hi, rk)) {
      c->Learn(from, lo, hi, st->peer, st->hops);
    }
  }
}

}  // namespace overlay
}  // namespace baton
