// overlay::Overlay: one interface over every P2P backend (BATON, Chord,
// multiway tree, and whatever comes next).
//
// The paper's evaluation is a head-to-head comparison, so the repo needs a
// single API that any bench, test, or workload replay can drive against any
// backend. Each operation returns a uniform OpStats whose `messages` field
// is the exact net::Network counter delta for that operation -- callers
// never diff snapshots by hand. Backends differ in what they support
// (Chord cannot answer range queries: "hashing destroys the ordering of
// data"); capabilities() declares the differences and unsupported
// operations fail with Status::FailedPrecondition instead of crashing.
//
// Backends register themselves by name in overlay/registry.h; construct one
// with overlay::Make("baton", cfg) and drive it generically, e.g. through
// workload::Replay.
#ifndef BATON_OVERLAY_OVERLAY_H_
#define BATON_OVERLAY_OVERLAY_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <typeinfo>
#include <vector>

#include "cache/cache.h"
#include "fault/fault.h"
#include "net/network.h"
#include "obs/observer.h"
#include "util/check.h"
#include "util/keys.h"
#include "util/status.h"

namespace baton {
namespace overlay {

using net::PeerId;
using net::kNullPeer;

/// Optional features a backend may support beyond the universal core
/// (join/leave, insert/delete, exact search). Queried via capabilities();
/// calling an unsupported operation returns Status::FailedPrecondition.
enum Capability : uint32_t {
  /// Order-preserving range queries (RangeSearch).
  kRangeSearch = 1u << 0,
  /// Abrupt failure + recovery protocol (Fail / RecoverAllFailures).
  kFailRecovery = 1u << 1,
  /// Content-driven load balancing.
  kLoadBalance = 1u << 2,
  /// Replica-based durability.
  kReplication = 1u << 3,
  /// Joins split ranges at the content median, so preloading data while the
  /// overlay grows keeps node ranges matched to the data distribution
  /// (hash-partitioned backends are insensitive to load order).
  kOrderedGrowth = 1u << 4,
};

/// Human-readable "range,fail,..." summary of a capability bitmask.
std::string CapabilitiesToString(uint32_t caps);

/// Uniform per-operation outcome. Every field is filled by the backend
/// except `messages` and `latency_ticks`, which the Overlay base class
/// computes: `messages` as the raw net::Network counter delta across the
/// operation, `latency_ticks` as the operation's simulated critical-path
/// time when a latency model is attached (see AttachLatency).
/// [[nodiscard]]: dropping an OpStats drops its Status -- a failed Join in
/// a churn loop would silently desynchronise the member list from the
/// overlay. Sites that really only care about the side effect discard
/// explicitly with (void) and a reason.
struct [[nodiscard]] OpStats {
  Status status = Status::OK();
  /// Operation-specific peer: the accepted joiner (Join) or the node whose
  /// range contains the key (ExactSearch).
  PeerId peer = kNullPeer;
  bool found = false;     // exact search: key is stored at `peer`
  uint64_t matches = 0;   // range search: stored keys in [lo, hi)
  uint64_t nodes = 0;     // range search: nodes intersecting the range
  int hops = 0;           // routing hops reported by the backend
  uint64_t messages = 0;  // total message delta for the whole operation
  /// Simulated wall-clock cost of the operation in ticks: sequential hops
  /// add, parallel fan-out takes the max over branches. Always 0 when no
  /// latency model is attached. Under a fault plan this spans every
  /// attempt, backoff included.
  uint64_t latency_ticks = 0;

  // ---- Resilience outcome (fault injection). All zero/false when no
  // fault plan is attached (see Overlay::AttachFaults). --------------------
  int retries = 0;    // extra attempts the resilience policy ran
  int timeouts = 0;   // attempts discarded for overrunning the hop budget
  /// The retry budget ran out with every attempt still losing messages or
  /// timing out; status is Unavailable and the answer fields are unset.
  bool gave_up = false;
  /// The operation completed, but only by absorbing faults: it lost or
  /// duplicated messages, or needed retries. Mutating ops that lost
  /// messages report degraded service instead of failing (the protocols'
  /// own recovery paths repair state).
  bool degraded = false;
  uint64_t dropped_msgs = 0;  // messages lost across all attempts

  // ---- Hot-path caching outcome. All zero when no cache manager is
  // attached (see Overlay::AttachCache). ------------------------------------
  /// Attempts answered by a verified route-cache jump (one probe message).
  int cache_hits = 0;
  /// Attempts whose cached owner no longer held the key: the probe was
  /// wasted, the entry evicted, and the normal protocol walk ran instead.
  int cache_stale = 0;
  /// Hops the cache saved vs. the walk that originally learned the route.
  int hops_saved = 0;

  bool ok() const { return status.ok(); }
  /// The fields an obs::OpTally books.
  obs::OpOutcome outcome() const {
    return {ok(), peer, hops, messages, latency_ticks};
  }
};

/// Abstract overlay backend. Public operations are non-virtual wrappers
/// that snapshot the network counters around the protected Do* hooks, so
/// OpStats::messages is identical across backends by construction.
class Overlay {
 public:
  virtual ~Overlay() = default;
  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  /// Registry name of the backend ("baton", "chord", "multiway", ...).
  virtual const std::string& name() const = 0;
  /// Bitmask of Capability values.
  virtual uint32_t capabilities() const = 0;
  bool Supports(Capability c) const { return (capabilities() & c) != 0; }

  /// The simulated physical network the backend is wired to. The base owns
  /// it, so it is constructed before and destroyed after any backend an
  /// adapter builds on it. Exposed for liveness queries, message observers
  /// and type-filtered message accounting.
  net::Network* network() { return &net_; }
  const net::Network* network() const { return &net_; }

  /// Attaches a latency model and a caller-owned clock to the backend's
  /// network, so every subsequent operation reports its simulated
  /// critical-path time in OpStats::latency_ticks and moves `clock` to its
  /// completion (see net::Network::AttachSim). Works on every backend: the
  /// timing is derived from the Count() stream, not from backend code.
  /// `clock` and `latency` are non-owning and must outlive the attachment;
  /// pass nullptr for both to detach.
  void AttachLatency(sim::Clock* clock, sim::LatencyModel* latency,
                     uint64_t seed) {
    network()->AttachSim(clock, latency, seed);
  }

  /// Attaches an observability collector (same lifecycle contract as
  /// AttachLatency: per instance, opt-in, non-owning, must outlive the
  /// attachment; pass nullptr to detach). The measured wrapper then opens a
  /// causal span per public operation and feeds its outcome into the
  /// observer's tally for that operation kind, while the network reports
  /// every delivered message into the open span. With no observer attached
  /// (the default) the hot paths gain nothing but a null check -- no
  /// allocations, and all bench output stays byte-identical.
  void AttachObserver(obs::Observer* obs) {
    obs_ = obs;
    network()->AttachObserver(obs);
  }
  obs::Observer* observer() const { return obs_; }

  /// Attaches a fault-injection plan to the backend's network (same
  /// lifecycle contract as the sim and obs attachments: per instance,
  /// opt-in, non-owning, nullptr detaches). While attached, the measured
  /// wrapper runs read operations under the policy given to SetResilience
  /// -- per-attempt loss/timeout detection, bounded retry with deterministic
  /// backoff, RetryOrigin rerouting -- and fills the OpStats resilience
  /// fields. Detached (the default) every hot path pays one null check and
  /// output is byte-identical to a fault-free build.
  void AttachFaults(net::FaultInjector* f) { network()->AttachFaults(f); }

  /// Attaches the hot-path caching manager (same lifecycle contract as the
  /// other attachments: per instance, opt-in, non-owning, nullptr
  /// detaches). While attached, exact searches consult the origin's route
  /// cache and the replicated fast-table before walking the protocol, learn
  /// completed routes, and a successful join, leave or fail drops the routes
  /// covering the RouteHint interval that changed owner, plus every route to
  /// a departed peer (see src/cache/cache.h). Detached (the default) every
  /// operation pays one null check and all output is byte-identical to a
  /// cache-free build.
  void AttachCache(cache::Manager* c) { cache_ = c; }

  /// Resilience budget applied while a fault plan is attached. The default
  /// policy (no retries, no timeout) makes every message loss in a read
  /// operation fatal to it -- the honest baseline benches compare against.
  void SetResilience(const fault::Policy& p) { resilience_ = p; }

  /// Fallback origin for retry `attempt` (1-based) of a read operation
  /// that started at `origin`: backends override this to re-resolve via
  /// the stale route's neighbours (parent / adjacent / successor links),
  /// cycling deterministically through the candidates. The base returns
  /// `origin` (retry in place). Must return a current member.
  virtual PeerId RetryOrigin(PeerId origin, int attempt) const;

  // ---- Cache support surface (per-backend). --------------------------------
  /// Routing coordinate of `key`: the space cache intervals live in. Tree
  /// backends route on the key itself (the default); Chord overrides this
  /// with HashKey, because its ownership intervals exist in hash space.
  virtual uint64_t RouteCoordOf(Key key) const;
  /// Current ownership interval of `peer` in routing-coordinate space,
  /// half-open [lo, hi) with cache::RangeContains conventions (Chord wraps).
  /// Returns false when the peer is not a live member. This is the fact the
  /// route cache learns, the owner-side verification of a hit, and the
  /// interval membership operations invalidate.
  virtual bool RouteHint(PeerId peer, uint64_t* lo, uint64_t* hi) const;
  /// Snapshot of the top `levels` tree levels (Chord: a 2^levels-arc finger
  /// prefix of the ring) as fast-table regions. Deeper entries win lookups.
  virtual void CollectFastTable(int levels,
                                std::vector<cache::FastEntry>* out) const;
  /// Answers `key` directly at `owner` -- already verified (RouteHint) to
  /// own the key's routing coordinate -- filling st->peer/st->found and
  /// returning true. The base returns false: the wrapper then runs a
  /// protocol search from `owner`, which tree backends resolve in zero
  /// hops. Chord overrides this because its successor walk from the owner
  /// would circle the ring to rediscover what the probe just verified.
  virtual bool CacheLocalAnswer(PeerId owner, Key key, OpStats* st);

  // ---- Membership ----------------------------------------------------------
  /// Creates the first node. Must be called exactly once, before any Join.
  PeerId Bootstrap();
  /// New peer joins via `contact`; OpStats::peer is the joiner's id.
  OpStats Join(PeerId contact);
  /// Graceful departure.
  OpStats Leave(PeerId leaver);
  /// Abrupt failure (requires kFailRecovery): the peer stops responding.
  OpStats Fail(PeerId victim);
  /// Repairs every pending failure (requires kFailRecovery).
  OpStats RecoverAllFailures();

  // ---- Index operations ----------------------------------------------------
  OpStats Insert(PeerId from, Key key);
  OpStats Delete(PeerId from, Key key);
  OpStats ExactSearch(PeerId from, Key key);
  /// Range query [lo, hi) (requires kRangeSearch).
  OpStats RangeSearch(PeerId from, Key lo, Key hi);

  // ---- Introspection -------------------------------------------------------
  virtual size_t size() const = 0;
  /// All members, in the backend's canonical (key-space) order.
  virtual std::vector<PeerId> Members() const = 0;
  virtual uint64_t total_keys() const = 0;
  /// Validates the backend's structural invariants; CHECK-fails on
  /// violation.
  virtual void CheckInvariants() const = 0;

  /// Salt the generic builder mixes into its rng seed. Each backend keeps
  /// the value its historical hand-wired builder used, so bench tables stay
  /// byte-identical across the unification.
  virtual uint64_t build_salt() const = 0;

 protected:
  Overlay() = default;

  virtual PeerId DoBootstrap() = 0;
  virtual void DoJoin(PeerId contact, OpStats* st) = 0;
  virtual void DoLeave(PeerId leaver, OpStats* st) = 0;
  virtual void DoFail(PeerId victim, OpStats* st);
  virtual void DoRecoverAllFailures(OpStats* st);
  virtual void DoInsert(PeerId from, Key key, OpStats* st) = 0;
  virtual void DoDelete(PeerId from, Key key, OpStats* st) = 0;
  virtual void DoExactSearch(PeerId from, Key key, OpStats* st) = 0;
  virtual void DoRangeSearch(PeerId from, Key lo, Key hi, OpStats* st);

  /// Shared FailedPrecondition status for operations the backend opted out
  /// of via capabilities().
  Status Unsupported(const char* op) const;

  /// Copy a backend's answer into `st`: its error status, or the joiner
  /// (Join), the owner and hit bit (exact search), or the node count and
  /// matches (range search; `found` means at least one match), plus hops.
  static void Fill(const Result<PeerId>& r, OpStats* st) {
    if (!r.ok()) {
      st->status = r.status();
      return;
    }
    st->peer = r.value();
  }
  static void Fill(const Result<net::SearchResult>& r, OpStats* st) {
    if (!r.ok()) {
      st->status = r.status();
      return;
    }
    st->peer = r.value().node;
    st->found = r.value().found;
    st->hops = r.value().hops;
  }
  static void Fill(const Result<net::RangeResult>& r, OpStats* st) {
    if (!r.ok()) {
      st->status = r.status();
      return;
    }
    st->nodes = r.value().nodes.size();
    st->matches = r.value().matches;
    st->hops = r.value().hops;
    st->found = r.value().matches > 0;
  }

  /// The retry-origin rule every backend shares: keeps the `links` of
  /// `origin` that are set, not `origin` itself, members (`is_member(peer)`)
  /// and alive, and cycles retry `attempt` (1-based) through them in the
  /// order given. Returns `origin` (retry in place) when none is left.
  template <typename IsMember>
  PeerId CycleLinks(PeerId origin, int attempt,
                    std::initializer_list<PeerId> links,
                    IsMember&& is_member) const {
    auto usable = [&](PeerId p) {
      return p != kNullPeer && p != origin && is_member(p) && net_.IsAlive(p);
    };
    int usable_links = 0;
    for (PeerId p : links) usable_links += usable(p) ? 1 : 0;
    if (usable_links == 0) return origin;
    int pick = (attempt - 1) % usable_links;
    for (PeerId p : links) {
      if (!usable(p)) continue;
      if (pick == 0) return p;
      --pick;
    }
    return origin;
  }

 private:
  /// Leave and Fail: runs `depart` (DoLeave or DoFail) on `peer` in the
  /// measured window and, when it succeeds, drops the routes covering the
  /// peer's former interval and every route to the peer.
  OpStats Departure(obs::OpKind op, PeerId peer,
                    void (Overlay::*depart)(PeerId, OpStats*));
  /// The measured wrapper: message count, obs span and the attempt loop.
  /// `retryable` marks read operations (safe to re-issue); `origin` is the
  /// peer the operation starts from (kNullPeer for membership repair ops
  /// with no caller-chosen origin).
  template <typename Fn>
  OpStats Measured(obs::OpKind op, PeerId origin, bool retryable, Fn&& fn);
  /// The body of Measured: one sim window per attempt, with retries under
  /// the policy given to SetResilience while a fault plan is attached.
  template <typename Fn>
  void RunAttempts(net::Network* net, PeerId origin, bool retryable,
                   Fn&& fn, OpStats* st);
  /// The cache-aware exact-search body: consult the origin's route cache
  /// (verified jump / stale fallback), then the fast-table (lazy refresh +
  /// cold jump), then the protocol walk; learn the completed route. With no
  /// cache attached this is exactly DoExactSearch.
  void CacheAwareExact(PeerId from, Key key, OpStats* st);

  net::Network net_;
  obs::Observer* obs_ = nullptr;
  cache::Manager* cache_ = nullptr;
  fault::Policy resilience_;
};

/// Checked downcast from the generic interface to one backend's adapter,
/// for benches and tests that read backend-specific state. CHECK-fails when
/// `ov` is some other backend.
template <class Adapter>
Adapter& As(Overlay& ov) {
  auto* adapter = dynamic_cast<Adapter*>(&ov);
  BATON_CHECK(adapter != nullptr) << "overlay '" << ov.name()
                                  << "' is not a " << typeid(Adapter).name();
  return *adapter;
}
template <class Adapter>
const Adapter& As(const Overlay& ov) {
  const auto* adapter = dynamic_cast<const Adapter*>(&ov);
  BATON_CHECK(adapter != nullptr) << "overlay '" << ov.name()
                                  << "' is not a " << typeid(Adapter).name();
  return *adapter;
}

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_OVERLAY_H_
