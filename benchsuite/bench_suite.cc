// bench_suite: the repository benchmark program.
//
// Runs ONE workload per process, single-threaded, and prints one JSON line
// as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set (benchsuite/README.md has both tables, and the reason
// behind each workload). Progress notes go to stderr.
//
// Layers are timed only from outside, in three ways:
//  * around calls into their public functions (Overlay ops, Engine::Run,
//    workload::Replay, BatonNetwork ops, Network::Count);
//  * through timing decorators on the three public hook interfaces:
//    sim::LatencyModel, net::FaultInjector and net::MessageObserver;
//  * by rerunning identical inputs with one attachment detached.
// Everything it needs comes from src/ library APIs; nothing from
// bench_common, so a refactor of the figure-bench harness cannot change
// what it measures.
//
//   bench_suite --workload lookup-uniform --seed 20260608 --seconds 10
//               --trace 0 [--smoke] [--out DIR]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baton/baton_network.h"
#include "cache/cache.h"
#include "fault/fault.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/log_histogram.h"
#include "obs/observer.h"
#include "overlay/baton_overlay.h"
#include "overlay/registry.h"
#include "serve/arrivals.h"
#include "serve/engine.h"
#include "sim/event_queue.h"
#include "sim/latency.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace baton {
namespace suite {
namespace {

using Clock = std::chrono::steady_clock;
using net::PeerId;
using workload::Op;
using workload::OpType;

constexpr Key kDomainHi = 1000000000;
/// Range searches cover 10^6 key values: about 65 nodes at N = 65,536 with
/// uniform keys, about 10 at N = 10,000.
constexpr Key kRangeWidth = 1000000;
/// Overlays ("beds") per run, each built from its own seed derived from
/// --seed. setup_s is the median of their set-ups, and every count and
/// distribution pools one pass over each, so seed-to-seed structural
/// variation averages over three trees.
constexpr int kBeds = 3;
/// A traced run keeps one op span (with its decorator children) per this
/// many timed overlay calls.
constexpr uint64_t kSpanEvery = 1024;
/// Reruns for the attach/detach and layer rows cover this share of a pass.
constexpr size_t kRerunDivisor = 4;

// Every random stream derives from --seed through one of these salts.
constexpr uint64_t kBuildSalt = 0xb11d;
constexpr uint64_t kTraceSalt = 0x7ace;
constexpr uint64_t kOriginSalt = 0x0419;
constexpr uint64_t kLatencySalt = 0x1a7e;
constexpr uint64_t kFaultSalt = 0xfa17;
constexpr uint64_t kArrivalSalt = 0xa881;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Median(std::vector<double> v) {
  BATON_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Throughput of a run from its per-chunk rates: the 90th percentile. Other
/// tenants of a shared machine only ever slow a chunk down, so an upper
/// quantile tracks the code's own speed; repeated runs of one seed agreed
/// about twice as closely on it as on the median.
double SustainedRate(std::vector<double> rates) {
  BATON_CHECK(!rates.empty());
  std::sort(rates.begin(), rates.end());
  return rates[static_cast<size_t>(
      0.9 * static_cast<double>(rates.size() - 1))];
}

/// Quantile of an integer-valued histogram (hops, ticks) read as if each
/// integer h >= 1 were spread evenly over [h - 0.5, h + 0.5); zero stays
/// exactly zero. The estimate is continuous in the data, so a seed that
/// moves a little mass across a bin edge moves the quantile a little
/// instead of by a whole hop. Values past the histogram's exact range fall
/// back to its in-bucket interpolation.
double SmoothQuantile(const obs::LogHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double target = q * static_cast<double>(h.count());
  double below = 0;
  for (int i = 0; i < static_cast<int>(obs::LogHistogram::kExactLimit); ++i) {
    const double c = static_cast<double>(h.bucket_count(i));
    if (c > 0 && below + c >= target) {
      return i == 0 ? 0.0 : i - 0.5 + (target - below) / c;
    }
    below += c;
  }
  return static_cast<double>(h.QuantileInterp(q));
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Workloads. Parameters are frozen: a later change that wants other inputs
// adds a workload instead of editing one, so trajectory points stay
// comparable.
// ---------------------------------------------------------------------------

enum class Kind { kLookup, kChurn, kServe };

struct Workload {
  const char* name = "";
  Kind kind = Kind::kLookup;
  size_t n = 0;              // overlay size after the build
  bool load_balance = false; // adaptive load balancing (2.2x mean load)
  size_t keys_per_node = 0;
  int replication = 0;       // BATON replication factor r
  double zipf_theta = 0;     // query keys: 0 = uniform, else zipf:theta
  double range_share = 0;    // share of queries that are range searches
  size_t gateways = 0;       // origin pool; 0 = every member
  bool sim = false;          // const:1 link latency attached
  size_t cache_capacity = 0; // route-cache entries per origin; 0 = detached
  double drop = 0;           // per-message drop probability; 0 = no plan
  bool observer = false;     // obs::Observer attached, metrics only
  // Per bed (a run measures kBeds beds):
  size_t warmup_ops = 0;     // counted in setup_s, not in ops_per_s
  size_t pass_ops = 0;       // one measured pass; counts cover first passes
  size_t chunk_ops = 0;      // ops per timed chunk (lookup, churn)
  size_t bisect_ops = 0;     // ops per capacity-bisection run (serve)
};

/// Read-only routing far beyond the paper's N, 16 uniform keys per node.
Workload LookupUniform() {
  Workload w;
  w.name = "lookup-uniform";
  w.kind = Kind::kLookup;
  w.n = 65536;
  w.keys_per_node = 16;
  w.range_share = 0.10;
  w.sim = true;
  w.warmup_ops = 100000;
  w.pass_ops = 500000;
  w.chunk_ops = 25000;
  return w;
}

/// Skewed exact lookups from a small gateway pool, so the route cache and
/// fast-table answer most of them (README finding (b)).
Workload LookupZipfCached() {
  Workload w;
  w.name = "lookup-zipf-cached";
  w.kind = Kind::kLookup;
  w.n = 10000;
  w.load_balance = true;
  w.keys_per_node = 100;
  w.zipf_theta = 0.9;
  w.gateways = 64;
  w.cache_capacity = 256;
  w.warmup_ops = 1000000;
  w.pass_ops = 1350000;
  w.chunk_ops = 50000;
  return w;
}

/// Writes and membership changes beside reads, on a lossy network.
Workload ChurnLossy() {
  Workload w;
  w.name = "churn-lossy";
  w.kind = Kind::kChurn;
  w.n = 10000;
  w.load_balance = true;
  w.keys_per_node = 100;
  w.replication = 1;
  w.range_share = 0.05;
  w.drop = 0.001;
  w.observer = true;
  w.pass_ops = 350000;
  w.chunk_ops = 25000;
  return w;
}

/// Open-loop serving at frozen offered rates, plus a capacity bisection.
Workload ServeOpenLoop() {
  Workload w;
  w.name = "serve-open-loop";
  w.kind = Kind::kServe;
  w.n = 10000;
  w.load_balance = true;
  w.keys_per_node = 100;
  w.zipf_theta = 0.9;
  w.range_share = 0.10;
  w.pass_ops = 100000;
  w.bisect_ops = 50000;
  return w;
}

/// Churn-lossy resilience budget: enough retries that no read exhausts it
/// at a 0.1% drop rate. The costliest reads are range searches that start
/// in the pile-up of nodes at the top of the key domain (README finding
/// (c)): ~300 messages, so ~26% of their attempts lose one, and a range
/// gives up with probability 0.26^9 = 5e-6.
constexpr int kChurnMaxRetries = 8;

/// serve-open-loop's frozen offered rates, in ops per tick (one tick of
/// service per message, one tick per hop). Calibrated once, when the
/// benchmark was defined, on seed 20260608: the closed-loop capacity
/// (admitted ops / busiest node's message count) was 4.09 ops/tick, and
/// the p99 sojourn at 0.1x that rate was 46.3 ticks. The reference rate is
/// 0.8x capacity and the p99 limit 4x that sojourn. They are not
/// re-calibrated per commit, so a capacity gain shows as lower sojourn at
/// the same load and a higher bisected capacity.
struct ServeRates {
  double reference = 0;
  double bisect_lo = 0;  // 0.1x capacity: always sustained
  double bisect_hi = 0;  // 2x capacity: never sustained
  int bisect_steps = 0;
  double sojourn_p99_limit = 0;
  /// A rate is sustained when the middle-80% completion rate reaches this
  /// share of the offered rate.
  double min_rate_share = 0;
};

constexpr ServeRates kServeRates = {3.27, 0.409, 8.18, 6, 185.0, 0.97};

/// --smoke: the same code paths and correctness gate at N <= 2,000 and a
/// few tens of thousands of ops, for CI.
Workload Smoke(Workload w) {
  w.n = std::min<size_t>(w.n, 2000);
  w.warmup_ops = std::min<size_t>(w.warmup_ops, 10000);
  w.pass_ops = 20000;
  w.chunk_ops = 2000;
  if (w.bisect_ops > 0) w.bisect_ops = 5000;
  return w;
}

// ---------------------------------------------------------------------------
// Tracing: in-memory per-call timings plus sampled spans.
// ---------------------------------------------------------------------------

/// Overlay public calls that are timed, in metric-name order.
enum OpSlot { kExactOp, kRangeOp, kInsertOp, kJoinOp, kLeaveOp, kFailOp,
              kRecoverOp, kNumOpSlots };
constexpr const char* kOpSlotNames[kNumOpSlots] = {
    "exact", "range", "insert", "join", "leave", "fail", "recover"};
constexpr const char* kOpSpanNames[kNumOpSlots] = {
    "overlay.exact", "overlay.range", "overlay.insert", "overlay.join",
    "overlay.leave", "overlay.fail",  "overlay.recover"};

/// The traced run's in-memory record: a duration histogram per timed entry
/// point, and one sampled op span (with the decorator calls made inside it)
/// per kSpanEvery timed overlay calls, for the Perfetto file. Inactive
/// outside the measured phase, so set-up and reruns stay untimed.
class Tracer {
 public:
  struct Span {
    const char* name;
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void SetActive(bool on) { active_ = enabled_ && on; }

  /// Times one overlay public call.
  template <typename Fn>
  overlay::OpStats Op(OpSlot slot, Fn&& fn) {
    if (!active_) return fn();
    sampling_ = ++calls_ % kSpanEvery == 0;
    const Clock::time_point t0 = Clock::now();
    overlay::OpStats st = fn();
    const Clock::time_point t1 = Clock::now();
    const uint64_t ns = NsBetween(t0, t1);
    op_ns_[slot].Add(ns);
    busy_ns_ += ns;
    if (sampling_) spans_.push_back({kOpSpanNames[slot], t0, t1});
    sampling_ = false;
    return st;
  }

  /// Records one decorated hook call.
  void Child(const char* name, Clock::time_point t0, Clock::time_point t1,
             obs::LogHistogram* h) {
    if (!active_) return;
    h->Add(NsBetween(t0, t1));
    if (sampling_) spans_.push_back({name, t0, t1});
  }

  const obs::LogHistogram& op_ns(OpSlot s) const { return op_ns_[s]; }
  uint64_t busy_ns() const { return busy_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

  obs::LogHistogram sim_sample_ns;
  obs::LogHistogram fault_decide_ns;
  obs::LogHistogram obs_message_ns;

 private:
  bool enabled_;
  bool active_ = false;
  bool sampling_ = false;
  uint64_t calls_ = 0;
  uint64_t busy_ns_ = 0;
  std::array<obs::LogHistogram, kNumOpSlots> op_ns_;
  std::vector<Span> spans_;
};

class TimedLatency final : public sim::LatencyModel {
 public:
  TimedLatency(sim::LatencyModel* inner, Tracer* tr)
      : inner_(inner), tr_(tr) {}
  sim::Time Sample(Rng* rng) override {
    const Clock::time_point t0 = Clock::now();
    const sim::Time v = inner_->Sample(rng);
    tr_->Child("sim.Sample", t0, Clock::now(), &tr_->sim_sample_ns);
    return v;
  }

 private:
  sim::LatencyModel* inner_;
  Tracer* tr_;
};

class TimedFaults final : public net::FaultInjector {
 public:
  TimedFaults(net::FaultInjector* inner, Tracer* tr) : inner_(inner), tr_(tr) {}
  Decision OnMessage(PeerId from, PeerId to, net::MsgType type) override {
    const Clock::time_point t0 = Clock::now();
    const Decision d = inner_->OnMessage(from, to, type);
    tr_->Child("fault.OnMessage", t0, Clock::now(), &tr_->fault_decide_ns);
    return d;
  }
  void OnOpBegin() override { inner_->OnOpBegin(); }

 private:
  net::FaultInjector* inner_;
  Tracer* tr_;
};

class TimedObserver final : public net::MessageObserver {
 public:
  TimedObserver(net::MessageObserver* inner, Tracer* tr)
      : inner_(inner), tr_(tr) {}
  void OnMessage(PeerId from, PeerId to, net::MsgType type, uint64_t send,
                 uint64_t deliver) override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnMessage(from, to, type, send, deliver);
    tr_->Child("obs.OnMessage", t0, Clock::now(), &tr_->obs_message_ns);
  }

 private:
  net::MessageObserver* inner_;
  Tracer* tr_;
};

// ---------------------------------------------------------------------------
// Reference model and run-wide tally.
// ---------------------------------------------------------------------------

/// Every key the run inserted, preload included: a count per key of
/// the run's key universe (preload keys plus the trace's insert keys, all
/// known at set-up), prefix-summed in a Fenwick tree. Inserts, lookups and
/// range counts are O(log n); a std::multiset's O(k) range count spent more
/// wall time on churn-lossy's checks than the measured ops did.
class Reference {
 public:
  /// Records a preloaded key; Freeze builds the model from them.
  void Add(Key k) { preload_.push_back(k); }
  /// Builds the model: the preloaded keys are present, and `may_insert`
  /// lists every key a later Insert can add.
  void Freeze(const std::vector<Key>& may_insert) {
    keys_ = preload_;
    keys_.insert(keys_.end(), may_insert.begin(), may_insert.end());
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    count_.assign(keys_.size(), 0);
    for (Key k : preload_) ++count_[Index(k)];
    tree_.assign(keys_.size() + 1, 0);
    for (size_t i = 1; i <= keys_.size(); ++i) {
      tree_[i] += count_[i - 1];
      const size_t up = i + (i & (~i + 1));
      if (up <= keys_.size()) tree_[up] += tree_[i];
    }
    size_ = preload_.size();
    preload_.clear();
    preload_.shrink_to_fit();
  }
  void Insert(Key k) {
    const size_t i = Index(k);
    BATON_CHECK(i < keys_.size() && keys_[i] == k)
        << "insert of key " << k << " outside the reference universe";
    ++count_[i];
    for (size_t j = i + 1; j <= keys_.size(); j += j & (~j + 1)) ++tree_[j];
    ++size_;
  }
  bool Contains(Key k) const {
    const size_t i = Index(k);
    return i < keys_.size() && keys_[i] == k && count_[i] > 0;
  }
  uint64_t CountRange(Key lo, Key hi) const {
    return Prefix(Index(hi)) - Prefix(Index(lo));
  }
  size_t size() const { return size_; }

 private:
  size_t Index(Key k) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), k) - keys_.begin());
  }
  /// Keys counted at universe indexes [0, n).
  uint64_t Prefix(size_t n) const {
    uint64_t sum = 0;
    for (size_t j = n; j > 0; j -= j & (~j + 1)) sum += tree_[j];
    return sum;
  }

  std::vector<Key> preload_;
  std::vector<Key> keys_;       // sorted, unique
  std::vector<uint32_t> count_; // per key of keys_
  std::vector<uint64_t> tree_;  // Fenwick tree over count_, 1-based
  size_t size_ = 0;
};

/// Every op the run executed and checked, across set-up, measured phase
/// and reruns. Non-OK ops count as failed and their answers are not
/// checked; an OK answer that disagrees with the reference is wrong.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  bool consistent = true;  // key counts, invariants, repeated passes

  void Inconsistent(const std::string& what) {
    std::fprintf(stderr, "bench_suite: CHECK FAILED: %s\n", what.c_str());
    consistent = false;
  }
};

struct OpOutcome {
  bool ok = false;
  bool found = false;
  uint64_t matches = 0;
};

/// Checks executed ops [begin, end) of `trace` in order, applying inserts
/// to the reference as it goes so each answer is judged against the key
/// set that existed when the op ran.
void CheckOps(const workload::Trace& trace, size_t begin, size_t end,
              const std::vector<OpOutcome>& out, Reference* ref, Tally* t) {
  for (size_t i = begin; i < end; ++i) {
    const Op& op = trace[i];
    const OpOutcome& o = out[i - begin];
    ++t->attempted;
    if (!o.ok) {
      ++t->failed;
      continue;
    }
    switch (op.type) {
      case OpType::kExact:
        if (o.found != ref->Contains(op.key)) ++t->wrong;
        break;
      case OpType::kRange:
        if (o.matches != ref->CountRange(op.key, op.key_hi)) ++t->wrong;
        break;
      case OpType::kInsert:
        ref->Insert(op.key);
        break;
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Test bed: overlay, attachments, traces and reference for one set-up.
// ---------------------------------------------------------------------------

enum Attach : unsigned { kSim = 1, kCache = 2, kFaults = 4, kObs = 8 };

unsigned FullSet(const Workload& w) {
  unsigned s = 0;
  if (w.sim) s |= kSim;
  if (w.cache_capacity > 0) s |= kCache;
  if (w.drop > 0) s |= kFaults;
  if (w.observer) s |= kObs;
  return s;
}

struct Bed {
  // Attachments are declared before the overlay, which holds non-owning
  // pointers to them, so the overlay is destroyed first.
  sim::EventQueue queue;
  sim::ConstantLatency latency{1};
  std::unique_ptr<TimedLatency> timed_latency;
  std::unique_ptr<cache::Manager> cache;
  std::unique_ptr<fault::Plan> plan;
  std::unique_ptr<TimedFaults> timed_faults;
  std::unique_ptr<obs::Observer> observer;
  std::unique_ptr<TimedObserver> timed_observer;

  std::unique_ptr<overlay::Overlay> ov;
  std::vector<PeerId> members;   // O(1) swap-remove on departure
  std::vector<PeerId> gateways;  // origin pool when non-empty
  workload::Trace warmup;
  workload::Trace trace;         // one measured pass
  workload::Trace bisect_trace;  // serve: prefix for capacity runs
  Reference ref;
  std::vector<OpOutcome> outcomes;  // per-chunk answer buffer
  uint64_t seed = 0;
};

/// Sets the bed's attachments to `set`; with `timed` the hook interfaces
/// go through the tracer's decorators.
void ApplyAttachments(Bed* b, unsigned set, bool timed) {
  overlay::Overlay& ov = *b->ov;
  if ((set & kSim) != 0) {
    sim::LatencyModel* m = &b->latency;
    if (timed) m = b->timed_latency.get();
    ov.AttachLatency(&b->queue, m, Mix64(b->seed ^ kLatencySalt));
  } else {
    ov.AttachLatency(nullptr, nullptr, 0);
  }
  ov.AttachCache((set & kCache) != 0 ? b->cache.get() : nullptr);
  if ((set & kFaults) != 0) {
    net::FaultInjector* f = b->plan.get();
    if (timed) f = b->timed_faults.get();
    ov.AttachFaults(f);
  } else {
    ov.AttachFaults(nullptr);
  }
  if ((set & kObs) != 0) {
    ov.AttachObserver(b->observer.get());
    // The decorator sits in front of the real observer on the message path;
    // the wrapper's BeginOp/EndOp still reach the observer directly.
    if (timed) ov.network()->AttachObserver(b->timed_observer.get());
  } else {
    ov.AttachObserver(nullptr);
  }
}

struct SetupTimes {
  double build = 0;
  double preload = 0;
  double tracegen = 0;
  double warmup = 0;
  double total() const { return build + preload + tracegen + warmup; }
};

void RemoveAt(std::vector<PeerId>* v, size_t idx) {
  (*v)[idx] = v->back();
  v->pop_back();
}

enum class Path { kOverlay, kBackend, kLoopOnly };

/// Where an op's origin is drawn from: the gateway pool when the workload
/// has one, else every member.
std::vector<PeerId>& OriginPool(Bed* b) {
  return b->gateways.empty() ? b->members : b->gateways;
}

/// One trace op through the overlay's public API (the measured path).
OpOutcome ExecOverlay(Bed* b, const Op& op, Rng* rng, Tracer* tr,
                      overlay::OpStats* out) {
  std::vector<PeerId>& pool = OriginPool(b);
  const size_t idx = rng->NextBelow(pool.size());
  const PeerId p = pool[idx];
  overlay::Overlay& ov = *b->ov;
  overlay::OpStats st;
  switch (op.type) {
    case OpType::kExact:
      st = tr->Op(kExactOp, [&] { return ov.ExactSearch(p, op.key); });
      break;
    case OpType::kRange:
      st = tr->Op(kRangeOp,
                  [&] { return ov.RangeSearch(p, op.key, op.key_hi); });
      break;
    case OpType::kInsert:
      st = tr->Op(kInsertOp, [&] { return ov.Insert(p, op.key); });
      break;
    case OpType::kJoin:
      st = tr->Op(kJoinOp, [&] { return ov.Join(p); });
      if (st.ok()) b->members.push_back(st.peer);
      break;
    case OpType::kLeave:
      st = tr->Op(kLeaveOp, [&] { return ov.Leave(p); });
      if (st.ok()) RemoveAt(&b->members, idx);
      break;
    case OpType::kFail: {
      st = tr->Op(kFailOp, [&] { return ov.Fail(p); });
      if (!st.ok()) break;
      RemoveAt(&b->members, idx);
      overlay::OpStats rec =
          tr->Op(kRecoverOp, [&] { return ov.RecoverAllFailures(); });
      if (!rec.ok()) st.status = rec.status;
      break;
    }
    default:
      BATON_CHECK(false) << "op type not used by any workload";
  }
  const OpOutcome o{st.ok(), st.found, st.matches};
  *out = std::move(st);
  return o;
}

/// The same op straight into the BATON backend: no measured wrapper, no
/// attachments. The overlay layer's self time is the difference.
OpOutcome ExecBackend(Bed* b, const Op& op, Rng* rng) {
  std::vector<PeerId>& pool = OriginPool(b);
  const size_t idx = rng->NextBelow(pool.size());
  const PeerId p = pool[idx];
  BatonNetwork& bn = overlay::BatonBackend(*b->ov);
  switch (op.type) {
    case OpType::kExact: {
      auto r = bn.ExactSearch(p, op.key);
      return r.ok() ? OpOutcome{true, r.value().found, 0} : OpOutcome{};
    }
    case OpType::kRange: {
      auto r = bn.RangeSearch(p, op.key, op.key_hi);
      return r.ok() ? OpOutcome{true, r.value().matches > 0,
                                r.value().matches}
                    : OpOutcome{};
    }
    case OpType::kInsert:
      return OpOutcome{bn.Insert(p, op.key).ok(), false, 0};
    case OpType::kJoin: {
      auto r = bn.Join(p);
      if (r.ok()) b->members.push_back(r.value());
      return OpOutcome{r.ok(), false, 0};
    }
    case OpType::kLeave: {
      const bool ok = bn.Leave(p).ok();
      if (ok) RemoveAt(&b->members, idx);
      return OpOutcome{ok, false, 0};
    }
    case OpType::kFail:
      bn.Fail(p);
      RemoveAt(&b->members, idx);
      return OpOutcome{bn.RecoverAllFailures().ok(), false, 0};
    default:
      BATON_CHECK(false) << "op type not used by any workload";
  }
  return OpOutcome{};
}

/// Deterministic counts of one measured pass (the first one).
struct PassStats {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::array<uint64_t, kNumOpSlots> calls{};
  obs::LogHistogram exact_hops;
  obs::LogHistogram range_ticks;
  uint64_t retries = 0;
  uint64_t gave_up = 0;
  uint64_t degraded = 0;
  uint64_t dropped = 0;
  uint64_t hops_saved = 0;

  void Add(const Op& op, const overlay::OpStats& st) {
    ++ops;
    if (!st.ok()) ++failed;
    retries += static_cast<uint64_t>(std::max(st.retries, 0));
    if (st.gave_up) ++gave_up;
    if (st.degraded) ++degraded;
    dropped += st.dropped_msgs;
    hops_saved += static_cast<uint64_t>(std::max(st.hops_saved, 0));
    switch (op.type) {
      case OpType::kExact:
        ++calls[kExactOp];
        if (st.ok()) {
          exact_hops.Add(static_cast<uint64_t>(std::max(st.hops, 0)));
        }
        break;
      case OpType::kRange:
        ++calls[kRangeOp];
        if (st.ok()) range_ticks.Add(st.latency_ticks);
        break;
      case OpType::kInsert: ++calls[kInsertOp]; break;
      case OpType::kJoin: ++calls[kJoinOp]; break;
      case OpType::kLeave: ++calls[kLeaveOp]; break;
      case OpType::kFail:
        ++calls[kFailOp];
        if (st.ok()) ++calls[kRecoverOp];
        break;
      default: break;
    }
  }
};

volatile uint64_t g_loop_sink = 0;

/// Runs `trace` ops [begin, end) along `path` and returns the chunk's wall
/// seconds. Answers are checked after the clock stops. `stats` (nullable)
/// collects OpStats of the overlay path.
double RunChunk(Bed* b, const workload::Trace& trace, size_t begin,
                size_t end, Rng* rng, Path path, Tracer* tr,
                PassStats* stats, Tally* tally) {
  std::vector<OpOutcome>& out = b->outcomes;
  out.assign(end - begin, OpOutcome{});
  overlay::OpStats st;
  const Clock::time_point t0 = Clock::now();
  switch (path) {
    case Path::kOverlay:
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = ExecOverlay(b, trace[i], rng, tr, &st);
        if (stats != nullptr) stats->Add(trace[i], st);
      }
      break;
    case Path::kBackend:
      for (size_t i = begin; i < end; ++i) {
        out[i - begin] = ExecBackend(b, trace[i], rng);
      }
      break;
    case Path::kLoopOnly: {
      // The benchmark loop's own per-op work (trace read, origin draw) with no
      // overlay call: the workload layer's share of the measured loop.
      const std::vector<PeerId>& pool = OriginPool(b);
      uint64_t sink = 0;
      for (size_t i = begin; i < end; ++i) {
        sink ^= pool[rng->NextBelow(pool.size())] ^
                static_cast<uint64_t>(trace[i].key);
      }
      g_loop_sink = sink;
      break;
    }
  }
  const double secs = SecondsBetween(t0, Clock::now());
  if (path != Path::kLoopOnly) {
    CheckOps(trace, begin, end, out, &b->ref, tally);
  }
  return secs;
}

/// Builds, preloads and warms one test bed from `seed` with attachments
/// `set`. Identical seeds give identical beds: the churn workload rebuilds
/// one per pass and per rerun.
std::unique_ptr<Bed> Setup(const Workload& w, uint64_t seed, unsigned set,
                           Tracer* tr, Tally* tally, SetupTimes* times) {
  auto b = std::make_unique<Bed>();
  b->seed = seed;
  *times = SetupTimes{};

  // ---- build, then preload ----------------------------------------------
  // Every workload grows by joins alone and loads its keys afterwards. The
  // paper's interleaved build (a batch of keys per join) aborts in the join
  // walk on some seeds once load balancing is on (README finding (a)).
  overlay::Config cfg;
  cfg.seed = seed;
  if (w.load_balance) {
    // The figure benches' standard setting: adaptive load balancing at 2.2x
    // the network-average load keeps ranges matched to the data.
    cfg.baton.enable_load_balance = true;
    cfg.baton.overload_factor = 2.2;
  }
  // Data-less growth to 65k needs the detour room bench_wallclock gives the
  // join walk; the budget changes nothing unless a walk would abort.
  cfg.baton.max_hops_factor = 64;
  cfg.baton.replication.factor = w.replication;
  b->ov = overlay::Make("baton", cfg);
  BATON_CHECK(b->ov != nullptr);
  overlay::Overlay& ov = *b->ov;
  Rng rng(Mix64(seed ^ kBuildSalt));
  Clock::time_point t0 = Clock::now();
  b->members.reserve(w.n);
  b->members.push_back(ov.Bootstrap());
  for (size_t i = 1; i < w.n; ++i) {
    const PeerId contact = b->members[rng.NextBelow(b->members.size())];
    overlay::OpStats joined = ov.Join(contact);
    BATON_CHECK(joined.ok()) << "build join: " << joined.status.ToString();
    b->members.push_back(joined.peer);
  }
  times->build = SecondsBetween(t0, Clock::now());
  t0 = Clock::now();
  workload::UniformKeys preload_keys(1, kDomainHi);
  for (size_t i = 0; i < w.keys_per_node * w.n; ++i) {
    const PeerId from = b->members[rng.NextBelow(b->members.size())];
    const Key k = preload_keys.Next(&rng);
    overlay::OpStats st = ov.Insert(from, k);
    BATON_CHECK(st.ok()) << "preload insert: " << st.status.ToString();
    b->ref.Add(k);
  }
  times->preload = SecondsBetween(t0, Clock::now());

  // ---- trace generation -------------------------------------------------
  t0 = Clock::now();
  Rng trng(Mix64(seed ^ kTraceSalt));
  std::unique_ptr<workload::KeyGenerator> qkeys;
  if (w.zipf_theta > 0) {
    qkeys = std::make_unique<workload::ZipfKeys>(1, kDomainHi, w.zipf_theta);
  } else {
    qkeys = std::make_unique<workload::UniformKeys>(1, kDomainHi);
  }
  auto lookups = [&](size_t ops) {
    const auto ranges =
        static_cast<size_t>(std::llround(w.range_share * ops));
    return workload::MakeMixedTrace(&trng, qkeys.get(), 0, 0, ops - ranges,
                                    ranges, kRangeWidth);
  };
  if (w.kind == Kind::kChurn) {
    // 9% join, 8% leave, 1% fail (+ RecoverAllFailures), 41% insert,
    // 36% exact, 5% range. Joins balance departures, so N (and the cost of
    // an op) stays stationary over the pass; a growing overlay also walks
    // into the join abort of README finding (a) sooner.
    const size_t n = w.pass_ops;
    workload::ChurnMix mix;
    mix.joins = n * 9 / 100;
    mix.leaves = n * 8 / 100;
    mix.failures = n / 100;
    mix.inserts = n * 41 / 100;
    mix.ranges = n * 5 / 100;
    mix.exacts = n - mix.joins - mix.leaves - mix.failures - mix.inserts -
                 mix.ranges;
    mix.range_width = kRangeWidth;
    b->trace = workload::MakeChurnTrace(&trng, qkeys.get(), mix);
  } else {
    b->warmup = lookups(w.warmup_ops);
    b->trace = lookups(w.pass_ops);
    if (w.kind == Kind::kServe) {
      b->bisect_trace.assign(b->trace.begin(),
                             b->trace.begin() +
                                 static_cast<long>(w.bisect_ops));
    }
  }
  if (w.gateways > 0) {
    b->gateways = b->members;
    trng.Shuffle(&b->gateways);
    b->gateways.resize(std::min(w.gateways, b->gateways.size()));
  }
  times->tracegen = SecondsBetween(t0, Clock::now());

  // ---- attachments, reference, warm-up -----------------------------------
  if (w.cache_capacity > 0) {
    cache::Config cc;
    cc.capacity = w.cache_capacity;
    cc.root_levels = 2;
    b->cache = std::make_unique<cache::Manager>(cc);
  }
  if (w.drop > 0) {
    fault::PlanConfig pc;
    pc.seed = Mix64(seed ^ kFaultSalt);
    pc.all.drop = w.drop;
    b->plan = std::make_unique<fault::Plan>(pc);
    fault::Policy pol;
    pol.max_retries = kChurnMaxRetries;
    pol.reroute = true;
    ov.SetResilience(pol);
  }
  if (w.observer) b->observer = std::make_unique<obs::Observer>(false);
  if (tr->enabled()) {
    b->timed_latency = std::make_unique<TimedLatency>(&b->latency, tr);
    if (b->plan) {
      b->timed_faults = std::make_unique<TimedFaults>(b->plan.get(), tr);
    }
    if (b->observer) {
      b->timed_observer =
          std::make_unique<TimedObserver>(b->observer.get(), tr);
    }
  }
  ApplyAttachments(b.get(), set, tr->enabled());
  std::vector<Key> may_insert;
  for (const Op& op : b->trace) {
    if (op.type == OpType::kInsert) may_insert.push_back(op.key);
  }
  b->ref.Freeze(may_insert);

  if (!b->warmup.empty()) {
    Rng wrng(Mix64(seed ^ kOriginSalt ^ 1));
    for (size_t pos = 0; pos < b->warmup.size(); pos += w.chunk_ops) {
      const size_t end = std::min(pos + w.chunk_ops, b->warmup.size());
      times->warmup += RunChunk(b.get(), b->warmup, pos, end, &wrng,
                                Path::kOverlay, tr, nullptr, tally);
    }
  }
  return b;
}

// ---------------------------------------------------------------------------
// Metrics output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0;
    list_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    char buf[64];
    for (size_t i = 0; i < list_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", list_[i].value);
      s += (i > 0 ? ", \"" : "\"") + list_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + list_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<Metric> list_;
};

constexpr int kNumCategories = static_cast<int>(net::MsgCategory::kOther) + 1;

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 20260608;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

/// Everything the metrics need from the measured phase. Counts and
/// distributions pool the first pass on each of the kBeds beds.
struct Observed {
  PassStats pass;
  std::array<uint64_t, kNumCategories> cat_msgs{};
  uint64_t pass_messages = 0;
  uint64_t sim_events = 0;
  cache::Stats cache;           // summed per-pass deltas
  double cache_entries = 0;     // mean over beds
  uint64_t lb_ops = 0;
  double height = 0;            // mean over beds
  double members = 0;           // mean over beds
  uint64_t lost_keys = 0;
  uint64_t recovered_keys = 0;
  std::vector<double> rates;    // ops/s per timed chunk or Engine::Run
  double measured_secs = 0;     // sum of timed chunk seconds
  double traced_slice_secs = 0; // last bed, first 1/kRerunDivisor of pass 1
  std::vector<uint64_t> bed_messages;  // first-pass messages, per bed
  // serve, at the reference rate
  obs::LogHistogram sojourn;
  obs::LogHistogram queue_wait;
  uint64_t peak_queue_depth = 0;
  uint64_t max_node_served = 0;
  double steady_rate = 0;       // mean over beds, ops/tick
  double capacity = 0;          // mean bisected capacity over beds, ops/tick
};

class Runner {
 public:
  Runner(const Args& a, const Workload& w)
      : args_(a), w_(w), tracer_(a.trace) {}

  int Run();

 private:
  /// Bed i's seed: the first bed uses --seed itself.
  uint64_t BedSeed(int i) const {
    return i == 0 ? args_.seed
                  : Mix64(args_.seed ^ (0xbedULL + static_cast<uint64_t>(i)));
  }
  void NewBed(int i) {
    bed_.reset();  // one bed alive at a time keeps peak RSS one bed's
    SetupTimes t;
    bed_ = Setup(w_, BedSeed(i), FullSet(w_), &tracer_, &tally_, &t);
    setups_.push_back(t);
  }
  /// Counters at the start of a first pass, for RecordPass's deltas.
  struct Mark {
    net::CounterSnapshot snap;
    uint64_t sim_events = 0;
    cache::Stats cache;
    uint64_t lb_ops = 0;
  };
  Mark MarkPass() const;
  void RecordPass(const Mark& m);
  bool OpsPass(bool first, bool last_bed);
  bool ServePass(bool first);
  bool OutOfTime() const { return obs_.measured_secs >= args_.seconds; }
  serve::EngineResult EngineRun(Bed* b, const workload::Trace& trace,
                                double rate, uint64_t arrival_seed,
                                double* secs);
  void FinalChecks();
  void EndToEnd(Metrics* m) const;
  void PerLayer(Metrics* m);
  double Rerun(Bed* b, unsigned set, Path path, size_t ops,
               uint64_t* messages);
  double RebuiltRerun(unsigned set, Path path, size_t ops,
                      uint64_t* messages);
  void WriteArtifacts(const Metrics& m,
                      const std::vector<std::pair<std::string, double>>& rank)
      const;

  const Args& args_;
  const Workload w_;
  Tracer tracer_;
  Tally tally_;
  std::vector<SetupTimes> setups_;
  std::unique_ptr<Bed> bed_;
  Observed obs_;
  double peak_rss_mb_ = 0;  // after set-up and the first passes
  // Last bed's first serve pass, for the repeat-pass consistency check.
  obs::LogHistogram last_sojourn_;
  double last_capacity_ = 0;
};

Runner::Mark Runner::MarkPass() const {
  Mark m;
  const net::Network* net = bed_->ov->network();
  m.snap = net->Snapshot();
  m.sim_events = net->sim_delivered();
  if (bed_->cache) m.cache = bed_->cache->stats();
  m.lb_ops = overlay::BatonBackend(*bed_->ov).load_balance_ops();
  return m;
}

void Runner::RecordPass(const Mark& m) {
  const Bed& b = *bed_;
  const net::Network* net = b.ov->network();
  const net::CounterSnapshot snap1 = net->Snapshot();
  obs_.bed_messages.push_back(net::Network::Delta(m.snap, snap1));
  obs_.pass_messages += obs_.bed_messages.back();
  for (int t = 0; t < net::kNumMsgTypes; ++t) {
    const auto type = static_cast<net::MsgType>(t);
    obs_.cat_msgs[static_cast<size_t>(net::CategoryOf(type))] +=
        net::Network::DeltaOfType(m.snap, snap1, type);
  }
  obs_.sim_events += net->sim_delivered() - m.sim_events;
  if (b.cache) {
    const cache::Stats& c = b.cache->stats();
    obs_.cache.hits += c.hits - m.cache.hits;
    obs_.cache.misses += c.misses - m.cache.misses;
    obs_.cache.stale += c.stale - m.cache.stale;
    obs_.cache.fast_hits += c.fast_hits - m.cache.fast_hits;
    obs_.cache.refresh_msgs += c.refresh_msgs - m.cache.refresh_msgs;
    obs_.cache_entries += static_cast<double>(b.cache->TotalEntries()) / kBeds;
  }
  const BatonNetwork& bn = overlay::BatonBackend(*b.ov);
  obs_.lb_ops += bn.load_balance_ops() - m.lb_ops;
  obs_.height += static_cast<double>(bn.Height()) / kBeds;
  obs_.members += static_cast<double>(b.ov->size()) / kBeds;
  obs_.lost_keys += bn.lost_keys();
  obs_.recovered_keys += bn.recovered_keys();
}

/// One pass over the bed's trace, chunk by chunk. A first pass records the
/// pooled counts; a repeat pass stops at a chunk boundary once the measured
/// time is spent and returns false when it did.
bool Runner::OpsPass(bool first, bool last_bed) {
  Bed* b = bed_.get();
  const Mark mark = MarkPass();
  const size_t slice_end = w_.pass_ops / kRerunDivisor;
  Rng rng(Mix64(b->seed ^ kOriginSalt));
  PassStats repeat;
  tracer_.SetActive(true);
  for (size_t pos = 0; pos < b->trace.size(); pos += w_.chunk_ops) {
    const size_t end = pos + w_.chunk_ops;
    const double s = RunChunk(b, b->trace, pos, end, &rng, Path::kOverlay,
                              &tracer_, first ? &obs_.pass : &repeat,
                              &tally_);
    obs_.rates.push_back(static_cast<double>(w_.chunk_ops) / s);
    obs_.measured_secs += s;
    if (first && last_bed && end <= slice_end) obs_.traced_slice_secs += s;
    if (!first && OutOfTime() && end < b->trace.size()) {
      tracer_.SetActive(false);
      return false;
    }
  }
  tracer_.SetActive(false);
  if (first) RecordPass(mark);
  return true;
}

serve::EngineResult Runner::EngineRun(Bed* b, const workload::Trace& trace,
                                      double rate, uint64_t arrival_seed,
                                      double* secs) {
  serve::EngineConfig ecfg;
  ecfg.replay.record_answers = true;
  serve::Engine engine(b->ov.get(), &b->members, ecfg);
  serve::PoissonArrivals arrivals(rate, arrival_seed);
  Rng op_rng(Mix64(b->seed ^ kOriginSalt));
  const Clock::time_point t0 = Clock::now();
  serve::EngineResult res = engine.Run(trace, &arrivals, &op_rng);
  *secs = SecondsBetween(t0, Clock::now());

  // Correctness, off the clock: answers come back in trace order.
  uint64_t failed = 0;
  for (const workload::OpAggregate& a : res.replay.per_op) {
    failed += a.count - a.ok;
  }
  tally_.attempted += trace.size();
  tally_.failed += failed;
  if (failed == 0) {
    size_t ei = 0;
    size_t ri = 0;
    for (const Op& op : trace) {
      if (op.type == OpType::kExact) {
        if (res.replay.exact_found[ei++] != b->ref.Contains(op.key)) {
          ++tally_.wrong;
        }
      } else if (op.type == OpType::kRange) {
        if (res.replay.range_matches[ri++] !=
            b->ref.CountRange(op.key, op.key_hi)) {
          ++tally_.wrong;
        }
      }
    }
  }
  return res;
}

/// Middle-80% completion rate: the steady-state throughput of a run, free
/// of its ramp-up and drain tail.
double SteadyRate(const serve::EngineResult& res) {
  const std::vector<sim::Time>& t = res.completions;
  if (t.size() < 20) return 0;
  const size_t lo = t.size() / 10;
  const size_t hi = t.size() - t.size() / 10 - 1;
  if (t[hi] <= t[lo]) return 0;
  return static_cast<double>(hi - lo) / static_cast<double>(t[hi] - t[lo]);
}

bool Sustained(const serve::EngineResult& r, double rate) {
  return SmoothQuantile(r.sojourn, 0.99) <= kServeRates.sojourn_p99_limit &&
         SteadyRate(r) >= kServeRates.min_rate_share * rate;
}

/// One serve pass: the reference-rate run over the whole trace, then the
/// capacity bisection over its prefix. A repeat pass stops between engine
/// runs once the measured time is spent and returns false when it did.
bool Runner::ServePass(bool first) {
  Bed* b = bed_.get();
  double secs = 0;
  const Mark mark = MarkPass();
  serve::EngineResult ref = EngineRun(b, b->trace, kServeRates.reference,
                                      Mix64(b->seed ^ kArrivalSalt), &secs);
  obs_.rates.push_back(static_cast<double>(b->trace.size()) / secs);
  obs_.measured_secs += secs;
  if (first) {
    RecordPass(mark);
    // The engine executes ops through workload::ApplyOp; its replay
    // aggregate stands in for the per-op statistics of the other kinds.
    PassStats& ps = obs_.pass;
    const workload::OpAggregate& ex = ref.replay.of(OpType::kExact);
    const workload::OpAggregate& rg = ref.replay.of(OpType::kRange);
    ps.ops += ref.admitted;
    ps.failed += (ex.count - ex.ok) + (rg.count - rg.ok);
    ps.calls[kExactOp] += ex.count;
    ps.calls[kRangeOp] += rg.count;
    ps.exact_hops.Merge(ex.hops_hist);
    obs_.sojourn.Merge(ref.sojourn);
    obs_.queue_wait.Merge(ref.queue_wait);
    obs_.peak_queue_depth = std::max(obs_.peak_queue_depth,
                                     ref.peak_queue_depth);
    obs_.max_node_served += ref.max_node_served;
    obs_.steady_rate += SteadyRate(ref) / kBeds;
    last_sojourn_ = ref.sojourn;
  } else if (ref.sojourn != last_sojourn_) {
    tally_.Inconsistent("a repeated serve pass changed the sojourn "
                        "distribution");
  }
  if (!first && OutOfTime()) return false;
  double lo = kServeRates.bisect_lo;
  double hi = kServeRates.bisect_hi;
  for (int step = 0; step < kServeRates.bisect_steps; ++step) {
    const double mid = 0.5 * (lo + hi);
    serve::EngineResult r = EngineRun(
        b, b->bisect_trace, mid,
        Mix64(b->seed ^ kArrivalSalt ^ static_cast<uint64_t>(step + 1)),
        &secs);
    obs_.rates.push_back(static_cast<double>(b->bisect_trace.size()) / secs);
    obs_.measured_secs += secs;
    (Sustained(r, mid) ? lo : hi) = mid;
    if (!first && OutOfTime()) return false;
  }
  if (first) {
    obs_.capacity += lo / kBeds;
    last_capacity_ = lo;
  } else if (lo != last_capacity_) {
    tally_.Inconsistent("a repeated serve pass bisected another capacity");
  }
  return true;
}

void Runner::FinalChecks() {
  const overlay::Overlay& ov = *bed_->ov;
  if (ov.total_keys() != bed_->ref.size()) {
    tally_.Inconsistent("total_keys() = " + std::to_string(ov.total_keys()) +
                        " but the reference holds " +
                        std::to_string(bed_->ref.size()));
  }
  ov.CheckInvariants();  // CHECK-fails (non-zero exit) on a violation
}

void Runner::EndToEnd(Metrics* m) const {
  std::vector<double> setup;
  for (const SetupTimes& t : setups_) setup.push_back(t.total());
  m->Add("setup_s", Median(setup), "s");
  m->Add("ops_per_s", SustainedRate(obs_.rates), "ops/s");
  m->Add("peak_rss_mb", peak_rss_mb_, "MiB");
  m->Add("msgs_per_op",
         Ratio(static_cast<double>(obs_.pass_messages),
               static_cast<double>(obs_.pass.ops)),
         "msgs");
  m->Add("exact_hops_p50", SmoothQuantile(obs_.pass.exact_hops, 0.50),
         "hops");
  // p90, not p99: the p99 route is set by where the few hottest zipf owners
  // sit in the tree, and moved by 35% between seeds on serve-open-loop; it
  // stays visible as the per-layer baton.exact_hops_p99.
  m->Add("exact_hops_p90", SmoothQuantile(obs_.pass.exact_hops, 0.90),
         "hops");
}

/// Wall seconds of `ops` ops of the pass trace on `b` (median chunk rate,
/// so one slow chunk does not skew it), with attachments `set` along `path`.
double Runner::Rerun(Bed* b, unsigned set, Path path, size_t ops,
                     uint64_t* messages) {
  ApplyAttachments(b, set, /*timed=*/false);
  Rng rng(Mix64(b->seed ^ kOriginSalt));
  const size_t chunk = std::max<size_t>(ops / 8, 1);
  std::vector<double> rates;
  const uint64_t m0 = b->ov->network()->total_messages();
  for (size_t pos = 0; pos < ops; pos += chunk) {
    const size_t end = std::min(pos + chunk, ops);
    const double s = RunChunk(b, b->trace, pos, end, &rng, path, &tracer_,
                              nullptr, &tally_);
    rates.push_back(static_cast<double>(end - pos) / s);
  }
  if (messages != nullptr) {
    *messages = b->ov->network()->total_messages() - m0;
  }
  return static_cast<double>(ops) / Median(rates);
}

/// Rerun on a fresh copy of the last bed, built from its seed (mutating
/// workloads).
double Runner::RebuiltRerun(unsigned set, Path path, size_t ops,
                            uint64_t* messages) {
  SetupTimes unused;
  std::unique_ptr<Bed> b =
      Setup(w_, BedSeed(kBeds - 1), set, &tracer_, &tally_, &unused);
  return Rerun(b.get(), set, path, ops, messages);
}

/// Mean cost of one detached Network::Count on a network of `peers` peers,
/// with receivers spread like the real traffic's (cache misses included).
double CountNs(size_t peers) {
  net::Network net;
  for (size_t i = 0; i < peers; ++i) (void)net.Register();
  Rng rng(Mix64(peers));
  constexpr size_t kCalls = size_t{1} << 20;
  std::vector<std::pair<PeerId, PeerId>> pairs(kCalls);
  for (auto& p : pairs) {
    p.first = static_cast<PeerId>(rng.NextBelow(peers));
    p.second = static_cast<PeerId>(rng.NextBelow(peers));
  }
  std::vector<double> per_call;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (const auto& p : pairs) {
      net.Count(p.first, p.second, net::MsgType::kExactQuery);
    }
    per_call.push_back(1e9 * SecondsBetween(t0, Clock::now()) /
                       static_cast<double>(kCalls));
  }
  return Median(per_call);
}

void Runner::PerLayer(Metrics* m) {
  const Observed& o = obs_;
  const PassStats& ps = o.pass;

  // ---- workload: set-up phases ------------------------------------------
  std::vector<double> build, preload, tracegen;
  for (const SetupTimes& t : setups_) {
    build.push_back(t.build);
    preload.push_back(t.preload);
    tracegen.push_back(t.tracegen);
  }
  m->Add("workload.build_s", Median(build), "s");
  m->Add("workload.preload_s", Median(preload), "s");
  m->Add("workload.tracegen_s", Median(tracegen), "s");

  // ---- reruns on identical inputs (untraced) ----------------------------
  const unsigned full = FullSet(w_);
  const size_t slice = w_.kind == Kind::kServe
                           ? w_.pass_ops / kRerunDivisor
                           : (w_.pass_ops / kRerunDivisor / w_.chunk_ops) *
                                 w_.chunk_ops;
  const bool rebuild = w_.kind == Kind::kChurn;
  auto rerun = [&](unsigned set, Path path, uint64_t* msgs = nullptr) {
    return rebuild ? RebuiltRerun(set, path, slice, msgs)
                   : Rerun(bed_.get(), set, path, slice, msgs);
  };
  double t_full = 0;
  double t_engine = 0;
  double t_replay = 0;
  if (w_.kind == Kind::kServe) {
    // serve: Engine::Run vs workload::Replay of the same slice, same
    // overlay, same op stream.
    workload::Trace part(bed_->trace.begin(),
                         bed_->trace.begin() + static_cast<long>(slice));
    std::vector<double> e, r;
    for (int rep = 0; rep < 3; ++rep) {
      double secs = 0;
      (void)EngineRun(bed_.get(), part, kServeRates.reference,
                      Mix64(bed_->seed ^ kArrivalSalt), &secs);
      e.push_back(secs);
      Rng op_rng(Mix64(bed_->seed ^ kOriginSalt));
      const Clock::time_point t0 = Clock::now();
      (void)workload::Replay(*bed_->ov, part, &op_rng, &bed_->members);
      r.push_back(SecondsBetween(t0, Clock::now()));
    }
    t_engine = Median(e);
    t_replay = Median(r);
    t_full = t_engine;
  } else {
    t_full = rerun(full, Path::kOverlay);
  }
  auto overhead = [&](unsigned x) -> double {
    if ((full & x) == 0) return 0;
    const double t_minus = rerun(full & ~x, Path::kOverlay);
    return t_full - t_minus;
  };
  const double d_sim = overhead(kSim);
  const double d_cache = overhead(kCache);
  const double d_fault = overhead(kFaults);
  const double d_obs = overhead(kObs);
  uint64_t bare_msgs = 0;
  const double t_bare = rerun(0, Path::kOverlay, &bare_msgs);
  const double t_backend = rerun(0, Path::kBackend);
  const double t_loop = Rerun(bed_.get(), 0, Path::kLoopOnly, slice, nullptr);
  const double count_ns = CountNs(bed_->ov->network()->num_registered());

  // serve's per-op timings come from one traced pass over the slice.
  double traced_secs = o.traced_slice_secs;
  if (w_.kind == Kind::kServe) {
    tracer_.SetActive(true);
    Rng rng(Mix64(bed_->seed ^ kOriginSalt));
    traced_secs = RunChunk(bed_.get(), bed_->trace, 0, slice, &rng,
                           Path::kOverlay, &tracer_, nullptr, &tally_);
    tracer_.SetActive(false);
  }
  const double t_untraced = w_.kind == Kind::kServe ? t_bare : t_full;

  // ---- overlay -----------------------------------------------------------
  for (int s = 0; s < kNumOpSlots; ++s) {
    const std::string p = std::string("overlay.") + kOpSlotNames[s];
    const obs::LogHistogram& h = tracer_.op_ns(static_cast<OpSlot>(s));
    m->Add(p + ".calls", static_cast<double>(ps.calls[static_cast<size_t>(s)]),
           "count");
    m->Add(p + ".ns_p50", static_cast<double>(h.QuantileInterp(0.50)), "ns");
    m->Add(p + ".ns_p99", static_cast<double>(h.QuantileInterp(0.99)), "ns");
  }
  const double timed_wall =
      w_.kind == Kind::kServe ? traced_secs : o.measured_secs;
  m->Add("overlay.busy_pct",
         100.0 * Ratio(static_cast<double>(tracer_.busy_ns()) * 1e-9,
                       timed_wall),
         "%");
  const double ops = static_cast<double>(ps.ops);
  m->Add("overlay.op_fail_pct",
         100.0 * Ratio(static_cast<double>(ps.failed), ops), "%");

  // ---- net ---------------------------------------------------------------
  for (int c = 0; c < kNumCategories; ++c) {
    m->Add(std::string("net.") +
               net::MsgCategoryName(static_cast<net::MsgCategory>(c)) +
               ".msgs_per_op",
           Ratio(static_cast<double>(o.cat_msgs[static_cast<size_t>(c)]), ops),
           "msgs");
  }

  // ---- baton -------------------------------------------------------------
  const double bound =
      1.44 * std::log2(std::max(o.members, 2.0));
  m->Add("baton.exact_hops_p99", SmoothQuantile(ps.exact_hops, 0.99), "hops");
  m->Add("baton.height", o.height, "levels");
  m->Add("baton.height_over_bound", Ratio(o.height, bound), "ratio");
  m->Add("baton.load_balance_ops", static_cast<double>(o.lb_ops), "count");
  m->Add("baton.lost_keys", static_cast<double>(o.lost_keys), "count");
  m->Add("baton.recovered_keys", static_cast<double>(o.recovered_keys),
         "count");
  m->Add("baton.members", o.members, "count");

  // ---- sim ---------------------------------------------------------------
  m->Add("sim.events_per_op",
         Ratio(static_cast<double>(o.sim_events), ops),
         "events");
  m->Add("sim.sample_ns",
         static_cast<double>(tracer_.sim_sample_ns.QuantileInterp(0.5)), "ns");
  m->Add("sim.attach_overhead_pct", 100.0 * Ratio(d_sim, t_full - d_sim),
         "%");
  m->Add("sim.range_ticks_p50", SmoothQuantile(ps.range_ticks, 0.50),
         "ticks");
  m->Add("sim.range_ticks_p99", SmoothQuantile(ps.range_ticks, 0.99),
         "ticks");

  // ---- cache -------------------------------------------------------------
  const cache::Stats& c = o.cache;
  const double consults = static_cast<double>(c.hits + c.misses + c.stale);
  const double exacts = static_cast<double>(ps.calls[kExactOp]);
  m->Add("cache.hit_pct", 100.0 * Ratio(static_cast<double>(c.hits), consults),
         "%");
  m->Add("cache.miss_pct",
         100.0 * Ratio(static_cast<double>(c.misses), consults), "%");
  m->Add("cache.fast_hit_pct",
         100.0 * Ratio(static_cast<double>(c.fast_hits), exacts), "%");
  m->Add("cache.hops_saved_per_op",
         Ratio(static_cast<double>(ps.hops_saved), exacts), "hops");
  m->Add("cache.refresh_msgs_per_op",
         Ratio(static_cast<double>(c.refresh_msgs), ops), "msgs");
  m->Add("cache.entries", o.cache_entries, "count");
  m->Add("cache.attach_overhead_pct",
         100.0 * Ratio(d_cache, t_full - d_cache), "%");

  // ---- fault -------------------------------------------------------------
  m->Add("fault.dropped_per_kmsg",
         1000.0 * Ratio(static_cast<double>(ps.dropped),
                        static_cast<double>(o.pass_messages)),
         "msgs");
  m->Add("fault.retries_per_op", Ratio(static_cast<double>(ps.retries), ops),
         "retries");
  m->Add("fault.gave_up_pct",
         100.0 * Ratio(static_cast<double>(ps.gave_up), ops), "%");
  m->Add("fault.degraded_pct",
         100.0 * Ratio(static_cast<double>(ps.degraded), ops), "%");
  m->Add("fault.decide_ns",
         static_cast<double>(tracer_.fault_decide_ns.QuantileInterp(0.5)),
         "ns");
  m->Add("fault.attach_overhead_pct",
         100.0 * Ratio(d_fault, t_full - d_fault), "%");

  // ---- obs ---------------------------------------------------------------
  m->Add("obs.on_message_ns",
         static_cast<double>(tracer_.obs_message_ns.QuantileInterp(0.5)),
         "ns");
  m->Add("obs.attach_overhead_pct", 100.0 * Ratio(d_obs, t_full - d_obs),
         "%");

  // ---- serve (reference-rate runs) ---------------------------------------
  m->Add("serve.sojourn_ticks_p50", SmoothQuantile(o.sojourn, 0.50), "ticks");
  m->Add("serve.sojourn_ticks_p99", SmoothQuantile(o.sojourn, 0.99), "ticks");
  m->Add("serve.capacity_ops_per_kt", 1000.0 * o.capacity, "ops/kt");
  m->Add("serve.queue_wait_p50", SmoothQuantile(o.queue_wait, 0.50), "ticks");
  m->Add("serve.queue_wait_p99", SmoothQuantile(o.queue_wait, 0.99), "ticks");
  m->Add("serve.peak_queue_depth", static_cast<double>(o.peak_queue_depth),
         "msgs");
  // Every message is one unit of service at its receiver.
  m->Add("serve.bottleneck_share_pct",
         100.0 * Ratio(static_cast<double>(o.max_node_served),
                       static_cast<double>(o.pass_messages)),
         "%");
  m->Add("serve.steady_rate_per_kt", 1000.0 * o.steady_rate, "ops/kt");
  m->Add("serve.engine_overhead_pct",
         100.0 * Ratio(t_engine - t_replay, t_replay), "%");

  // ---- trace -------------------------------------------------------------
  m->Add("trace.overhead_pct",
         100.0 * Ratio(traced_secs - t_untraced, t_untraced), "%");

  // ---- self time per layer, ranked --------------------------------------
  // Each layer's share of the untraced measured slice, derived from the
  // reruns: attachments by detaching them one at a time, the measured
  // wrapper as wrapper-vs-backend, net::Network::Count from a timed
  // calibration loop times the messages sent, the benchmark loop by running
  // it with no overlay call, and the protocol as what remains.
  const double net_s = count_ns * 1e-9 * static_cast<double>(bare_msgs);
  std::vector<std::pair<std::string, double>> parts = {
      {"workload", t_loop},
      {"net", net_s},
      {"baton", t_backend - t_loop - net_s},
      {"overlay", t_bare - t_backend},
      {"sim", d_sim},
      {"cache", d_cache},
      {"fault", d_fault},
      {"obs", d_obs},
      {"serve", t_engine - t_replay},
  };
  double total = 0;
  for (auto& [layer, s] : parts) {
    s = std::max(s, 0.0);
    total += s;
  }
  for (auto& [layer, s] : parts) {
    s = 100.0 * Ratio(s, total);
    m->Add(layer + ".self_pct", s, "%");
  }
  std::stable_sort(parts.begin(), parts.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::fprintf(stderr, "bench_suite: %s layers by self time:", w_.name);
  for (const auto& [layer, pct] : parts) {
    std::fprintf(stderr, " %s=%.1f%%", layer.c_str(), pct);
  }
  std::fprintf(stderr, "\n");
  WriteArtifacts(*m, parts);
}

void Runner::WriteArtifacts(
    const Metrics& m,
    const std::vector<std::pair<std::string, double>>& rank) const {
  if (args_.out_dir.empty()) return;
  const std::string stem = args_.out_dir + "/" + w_.name + "-seed" +
                           std::to_string(args_.seed);
  // Perfetto / chrome://tracing: sampled op spans nest their decorator
  // children by time containment on one track.
  if (FILE* f = std::fopen((stem + ".trace.json").c_str(), "w")) {
    std::fprintf(f, "{\"traceEvents\": [\n");
    const std::vector<Tracer::Span>& spans = tracer_.spans();
    // A parent span is recorded after its children; start at the earliest.
    Clock::time_point base = Clock::now();
    for (const Tracer::Span& s : spans) base = std::min(base, s.begin);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                   i > 0 ? ",\n" : "", s.name, layer.c_str(),
                   1e6 * SecondsBetween(base, s.begin),
                   1e6 * SecondsBetween(s.begin, s.end));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  }
  if (FILE* f = std::fopen((stem + ".layers.json").c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"ranking\": [",
                 w_.name, static_cast<unsigned long long>(args_.seed));
    for (size_t i = 0; i < rank.size(); ++i) {
      std::fprintf(f, "%s[\"%s\", %.3f]", i > 0 ? ", " : "",
                   rank[i].first.c_str(), rank[i].second);
    }
    std::fprintf(f, "], \"metrics\": %s}\n", m.Json().c_str());
    std::fclose(f);
  }
}

int Runner::Run() {
  // One first pass on each bed, then repeat passes until --seconds of timed
  // work is spent. Read-only workloads repeat on the last bed. Churn-lossy
  // rebuilds the beds in turn and checks that a repeated pass sends exactly
  // its first pass's messages; replaying its trace on the mutated overlay
  // instead would re-insert every key, and the duplicate pile-ups leave
  // width-1 ranges whose joins abort (README finding (a)).
  for (int i = 0; i < kBeds; ++i) {
    NewBed(i);
    if (w_.kind == Kind::kServe) {
      (void)ServePass(/*first=*/true);
    } else {
      (void)OpsPass(/*first=*/true, /*last_bed=*/i == kBeds - 1);
    }
    FinalChecks();
  }
  // Read before the time-bounded repeats: how much they run depends on the
  // host's speed, and churn-lossy's overlay grows with every op it runs.
  peak_rss_mb_ = PeakRssMb();
  std::fprintf(stderr, "bench_suite: %s seed=%llu set-up %.3f s (x%d)\n",
               w_.name, static_cast<unsigned long long>(args_.seed),
               setups_.back().total(), kBeds);
  for (int pass = 0; !OutOfTime(); ++pass) {
    if (w_.kind == Kind::kServe) {
      if (!ServePass(/*first=*/false)) break;
      continue;
    }
    const auto bed = static_cast<size_t>(pass % kBeds);
    if (w_.kind == Kind::kChurn) NewBed(static_cast<int>(bed));
    const uint64_t before = bed_->ov->network()->total_messages();
    const bool complete = OpsPass(/*first=*/false, /*last_bed=*/false);
    if (complete && w_.kind == Kind::kChurn &&
        bed_->ov->network()->total_messages() - before !=
            obs_.bed_messages[bed]) {
      tally_.Inconsistent("a repeated churn pass sent other messages");
    }
    if (w_.kind == Kind::kChurn) FinalChecks();
    if (!complete) break;
  }
  FinalChecks();

  Metrics m;
  if (args_.trace) {
    PerLayer(&m);
    FinalChecks();
  } else {
    EndToEnd(&m);
  }
  const bool correct = tally_.wrong == 0 && tally_.consistent;
  if (tally_.wrong > 0) {
    std::fprintf(stderr, "bench_suite: %llu wrong answers\n",
                 static_cast<unsigned long long>(tally_.wrong));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally_.attempted),
      static_cast<unsigned long long>(tally_.failed), m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out DIR]\nworkloads: lookup-uniform lookup-zipf-cached "
               "churn-lossy serve-open-loop\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      if (!(a.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--out") {
      a.out_dir = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

}  // namespace

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload all[] = {LookupUniform(), LookupZipfCached(), ChurnLossy(),
                          ServeOpenLoop()};
  for (const Workload& w : all) {
    if (args.workload != w.name) continue;
    Runner runner(args, args.smoke ? Smoke(w) : w);
    return runner.Run();
  }
  Usage(("unknown workload " + args.workload).c_str());
}

}  // namespace suite
}  // namespace baton

int main(int argc, char** argv) { return baton::suite::Main(argc, argv); }
