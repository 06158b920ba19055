// Shared harness for the figure benches: one overlay-generic Instance
// builder/loader (any registered backend, via overlay::Make), option
// parsing and table output. Each bench binary reproduces one panel of the
// paper's Figure 8 and prints the series the paper plots.
//
// Default scale (N up to 8000, 100 keys/node, 2 seeds) keeps every binary
// fast; pass --paper_scale for the paper's setup (N = 1000..10000, 1000
// keys/node, 10 seeds). --overlay=name[,name...] restricts multi-backend
// benches to a subset of the registered backends.
#ifndef BATON_BENCH_COMMON_EXPERIMENT_H_
#define BATON_BENCH_COMMON_EXPERIMENT_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "baton/baton.h"
#include "obs/observer.h"
#include "overlay/registry.h"
#include "sim/latency.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workload/workload.h"

namespace baton {
namespace bench {

/// Link-latency model selected with --latency=const:N|uniform:LO,HI. With
/// Kind::kNone no latency model is attached at all: OpStats::latency_ticks
/// stays 0 and every bench table is byte-identical to a build without sim
/// support.
struct LatencySpec {
  enum class Kind { kNone, kConst, kUniform };
  Kind kind = Kind::kNone;
  sim::Time lo = 0;
  sim::Time hi = 0;

  bool enabled() const { return kind != Kind::kNone; }
};

/// Request-key distribution selected with --key-dist=uniform|zipf:THETA.
/// Uniform is the paper's setup; zipf:THETA concentrates queries on the
/// popular low end of the key space (util::ZipfGenerator), the access skew
/// that turns a range-partitioned overlay's key owners into hot spots.
struct KeyDistSpec {
  enum class Kind { kUniform, kZipf };
  Kind kind = Kind::kUniform;
  double theta = 0.0;  // Zipf exponent; unused for kUniform

  /// Table/column label: "uniform" or "zipf:<theta>".
  std::string Label() const;
};

/// Builds the request-key generator `spec` describes over [lo, hi).
std::unique_ptr<workload::KeyGenerator> MakeKeyGenerator(
    const KeyDistSpec& spec, Key lo, Key hi);

struct Options {
  std::vector<size_t> sizes = {1000, 2000, 4000, 8000};
  size_t keys_per_node = 100;
  int queries = 1000;
  int seeds = 2;
  uint64_t base_seed = 20260608;
  /// Worker threads for per-(backend, N, seed) task execution in the
  /// multi-backend benches (--threads=N; 0 = hardware concurrency).
  /// Defaults to 1: results are deterministic regardless (tasks only write
  /// their own slot and aggregation is sequential), but concurrent tasks
  /// share the machine, so leave wall-clock *timing* benches sequential
  /// unless throughput matters more than timing fidelity.
  int threads = 1;
  /// Backends selected with --overlay=...; empty means "all registered".
  std::vector<std::string> overlays;
  /// Link latency model from --latency=...; Kind::kNone leaves the network
  /// untimed.
  LatencySpec latency;
  /// --json=PATH: mirror every Emit'd table into PATH as a JSON array of
  /// row objects (see SetJsonMirror). Empty = no mirror.
  std::string json_path;
  /// --trace=PATH: record a causal op/message trace per bench task and
  /// write one merged Chrome trace-event JSON file (open in Perfetto).
  /// Honoured by the observability-aware benches (bench_compare_overlays,
  /// bench_latency_query). Empty = tracing off.
  std::string trace_path;
  /// --metrics=PATH: write one obs::Observer::AppendJson snapshot per bench
  /// task (an array of {overlay, N, seed, metrics} objects). Empty = off.
  std::string metrics_path;

  /// Request-key distributions from --key-dist=...; empty means the bench's
  /// default (uniform). Benches that honour this run one series per entry.
  std::vector<KeyDistSpec> key_dists;
};

/// A flag --name=ARG outside the core set. Benches that read a flag
/// register it with ParseOptions; every other bench rejects it as unknown.
struct Flag {
  std::string name;  // without the leading "--"
  std::string arg;   // placeholder shown in --help, e.g. "N" or "a,b,c"
  std::string help;  // --help text; '\n' starts an indented continuation
  /// Parses the value after '=' into `opt` or the group's own fields;
  /// malformed input goes to FlagError.
  std::function<void(const char* value, Options* opt)> parse;
};
using FlagGroup = std::vector<Flag>;

// Groups for the Options fields only some benches read.
/// --queries: the benches whose op count is Options::queries (the
/// fig8a/b/g/h and load-balance ablation tables use fixed op counts).
FlagGroup QueryFlags();
/// --overlay and --threads: the multi-backend benches built on RunTasks.
FlagGroup BackendFlags();
/// --latency: the benches that call Attach.
FlagGroup LatencyFlags();
/// --trace and --metrics: the benches that call Attach and
/// WriteObsArtifacts.
FlagGroup ObsFlags();
/// --key-dist.
FlagGroup KeyDistFlags();

/// Prints `message` and the usage to stderr, then exits 2. For the parse
/// callbacks of registered flags.
[[noreturn]] void FlagError(const std::string& message);

/// Splits a comma list, dropping empty entries ("a,,b" -> {"a", "b"}).
std::vector<std::string> SplitList(const char* arg);

/// Serving-engine flags (bench_throughput).
struct ServeFlags {
  /// --load: offered-load sweep points, as fractions of each (backend, N,
  /// seed)'s calibrated closed-loop capacity. The default straddles the
  /// saturation knee from either side.
  std::vector<double> loads = {0.5, 0.8, 0.95, 1.1, 1.3};
  /// --arrivals: the open-loop arrival process, poisson or fixed.
  std::string arrivals = "poisson";
  /// --service-ticks: per-message node service time (serve::NodeModel).
  uint64_t service_ticks = 1;
  /// --max-queue: per-node queue bound; arrivals past it drop the owning
  /// op (0 = unbounded queues).
  uint64_t max_queue = 0;
  /// --timeout-ticks: sojourns past this count as timed out (client gave
  /// up; the op still completes and is measured). 0 = no deadline.
  uint64_t timeout_ticks = 0;
  /// --stragglers=K:FACTOR: the first K members (deterministically chosen
  /// per seed) service messages FACTOR times slower than --service-ticks.
  /// K = 0 (the default) keeps the fleet homogeneous.
  size_t stragglers = 0;
  double straggler_factor = 8.0;

  FlagGroup Flags();
};

/// Fault-injection flags (bench_faults).
struct FaultFlags {
  /// --drop: per-message drop probabilities to sweep (one fault::Plan
  /// column group each).
  std::vector<double> drop_rates = {0.01, 0.05, 0.10};
  /// --dup: per-message duplicate probability in every faulted cell.
  double dup_rate = 0.0;
  /// --retries: resilience retry budgets to sweep (fault::Policy::
  /// max_retries per cell).
  std::vector<int> retry_budgets = {0, 1, 3};
  /// --timeout-ticks: fault::Policy::timeout_ticks per attempt (0 = none).
  uint64_t timeout_ticks = 0;

  FlagGroup Flags();
};

/// Hot-path cache flags (bench_cache).
struct CacheFlags {
  /// --cache=SIZE[,k]: per-node route-cache capacity and replicated
  /// fast-table levels (see src/cache/cache.h); k = 0 disables only the
  /// fast-table.
  size_t capacity = 256;
  int levels = 2;
  /// --timeout-ticks: fault::Policy::timeout_ticks of the lossy cell.
  uint64_t timeout_ticks = 0;

  FlagGroup Flags();
};

/// Schema version stamped into every JSON row/snapshot the bench harness
/// writes (the "schema" field), so BENCH trajectory artifacts stay
/// self-describing across PRs. Bump when a JSON shape changes:
///   1  PR 4's bare row objects (no schema field)
///   2  adds the schema field itself, obs artifacts, percentile columns
inline constexpr int kBenchJsonSchema = 2;

/// Parses the core flags every bench accepts -- --paper_scale,
/// --seeds=N, --keys=N, --sizes=a,b,c, --seed=S, --json=PATH,
/// --list-overlays (prints overlay::RegisteredNames() one per line, exits
/// 0), --help (prints usage, exits 0) -- plus the flags of `groups`, which
/// --help lists after them. Unknown flags print the usage and exit 2;
/// usage and the --overlay rejection message both list the registered
/// backends from the registry, so new backends appear without touching
/// this file. Numeric flags are parsed strictly: a value that is
/// not entirely a base-10 number in the flag's valid range (e.g.
/// --threads=-2, --seeds=2x) prints a diagnostic plus the usage and exits 2
/// instead of silently truncating or wrapping.
Options ParseOptions(int argc, char** argv,
                     std::initializer_list<FlagGroup> groups = {});

/// Runs fn(i) for every i in [0, count) on up to `threads` worker threads
/// (1 = inline sequential execution, 0 = hardware concurrency). Tasks are
/// handed out in index order through an atomic cursor. Each task must touch
/// only its own result slot; emit tables/JSON only after the call returns
/// (the seed-parallel bench pattern: build per-task results concurrently,
/// then aggregate sequentially in task order so output is byte-identical to
/// a sequential run).
void ParallelFor(size_t count, int threads,
                 const std::function<void(size_t)>& fn);

/// One (overlay, N, seed) unit of bench work; built by the task builders
/// below and executed through RunTasks.
struct SeedTask {
  std::string overlay;
  size_t n = 0;
  int seed = 0;
};

/// Tasks in sizes-major order (opt.sizes × overlays × opt.seeds) -- the row
/// nesting of the per-size comparison tables (bench_compare_overlays,
/// bench_latency_query).
std::vector<SeedTask> SizeMajorTasks(const Options& opt,
                                     const std::vector<std::string>& overlays);
/// Tasks in backend-major order (overlays × opt.sizes × opt.seeds) -- the
/// row nesting of bench_wallclock.
std::vector<SeedTask> BackendMajorTasks(
    const Options& opt, const std::vector<std::string>& overlays);

/// Runs fn(task) for every task on `threads` workers (via ParallelFor) and
/// returns the results aligned with `tasks`. This pins the ordering
/// contract in one place: a bench aggregates by replaying the same loop
/// nest its task builder used (or by iterating `tasks` directly), so its
/// output is byte-identical to a sequential run regardless of thread count.
template <typename Result, typename Fn>
std::vector<Result> RunTasks(const std::vector<SeedTask>& tasks, int threads,
                             Fn&& fn) {
  std::vector<Result> results(tasks.size());
  ParallelFor(tasks.size(), threads,
              [&](size_t i) { results[i] = fn(tasks[i]); });
  return results;
}

/// Routes every subsequent Emit into a JSON mirror at `path` (in addition
/// to stdout): the file holds one JSON array whose elements are row objects
/// {"table": <title>, "<header>": <cell>, ...}; numeric-looking cells are
/// emitted as JSON numbers. The file is created immediately (so a bad path
/// fails fast, before any bench work runs) and the array is closed at
/// process exit. Called by ParseOptions for --json=PATH; benches with a
/// canonical output file (bench_wallclock) call it directly with their
/// default path.
void SetJsonMirror(const std::string& path);

/// The backends a multi-backend bench should run: opt.overlays when given,
/// otherwise every registered backend.
std::vector<std::string> SelectedOverlays(const Options& opt);

/// Standard experiment configuration: load balancing on with an adaptive
/// threshold (overloaded = 2.2x the current network-average load, so
/// uniform workloads trip it only on outliers). Section IV-D's machinery is
/// what keeps node loads -- and thus ranges -- matched to the data
/// distribution.
BatonConfig BalancedConfig();

/// BalancedConfig plus replication at factor r (0 = off): each node's keys
/// mirrored on r holders, restored on failure. The durability bench sweeps r.
BatonConfig ReplicatedConfig(int r);

/// overlay::Config carrying BalancedConfig for the BATON backend (other
/// backends use their defaults) -- the standard setup of the Fig. 8 benches.
overlay::Config BalancedOverlayConfig();

/// A built overlay of any backend plus the member list benches sample
/// operation origins from (join order; erased on departure).
struct Instance {
  std::unique_ptr<overlay::Overlay> overlay;
  std::vector<net::PeerId> members;

  /// Clock and latency model driving OpStats::latency_ticks; set by Attach
  /// under --latency (null otherwise, and the overlay runs untimed).
  std::unique_ptr<sim::Clock> clock;
  std::unique_ptr<sim::LatencyModel> latency;

  /// Observability collector; set by Attach under --trace/--metrics (null
  /// otherwise, and the overlay runs unobserved -- the zero-overhead
  /// default).
  std::unique_ptr<obs::Observer> observer;

  net::Network* net() { return overlay->network(); }
};

/// Attaches what `opt` asks for, owned by the instance: a latency model
/// under --latency (subsequent operations fill OpStats::latency_ticks; its
/// sampling rng is seeded from `seed` independently of every protocol rng,
/// so message counts and protocol decisions are unaffected), and an
/// obs::Observer under --trace/--metrics (metrics always, a causal trace
/// with --trace). Without those flags this attaches nothing.
void Attach(Instance* inst, const Options& opt, uint64_t seed);

/// Writes the observability artifacts opt.trace_path / opt.metrics_path
/// request, from per-task observers aligned with `tasks` (null entries --
/// tasks that ran unobserved -- are skipped). The trace file holds one
/// Chrome trace "process" per task, labelled "<overlay> N=<n> seed=<s>";
/// the metrics file holds a JSON array of per-task metrics snapshots.
/// Prints a one-line note per file written.
void WriteObsArtifacts(const Options& opt, const std::vector<SeedTask>& tasks,
                       const std::vector<const obs::Observer*>& observers);

/// Builds an overlay of n `name`-backend nodes joined via random contacts.
/// When `preload` is non-null, keys_per_node * n keys are loaded before
/// growth (the paper inserts its data "in batches" as the network forms):
/// order-preserving backends (Capability::kOrderedGrowth) then split ranges
/// at the content median on every join, so node ranges stay proportional to
/// the data distribution -- the property the load figures depend on.
Instance BuildOverlay(const std::string& name, size_t n, uint64_t seed,
                      const overlay::Config& cfg = {},
                      size_t keys_per_node = 0,
                      workload::KeyGenerator* preload = nullptr);

/// A BalancedOverlayConfig overlay of n `name`-backend nodes holding
/// keys_per_node * n keys from `keys`. Order-preserving backends load while
/// they grow (ranges track the content median); hash-partitioned ones are
/// insensitive to load order and bulk-load afterwards from a dedicated rng,
/// leaving the build rng stream the same for every backend.
Instance BuildPreloaded(const std::string& name, size_t n, uint64_t seed,
                        size_t keys_per_node, workload::KeyGenerator* keys);

/// Inserts keys_per_node * size() additional keys from random origins.
void LoadOverlay(Instance* inst, size_t keys_per_node,
                 workload::KeyGenerator* gen, Rng* rng);

/// Joins a random contact then removes a random member, `ops` times, on any
/// backend -- the churn loop of the join/leave figure benches (Fig 8(a),
/// 8(b)) and bench_wallclock. `on_pair`, when set, receives the counter
/// snapshots before the join, between join and leave, and after the leave.
using ChurnCost = std::function<void(const net::CounterSnapshot& before,
                                     const net::CounterSnapshot& mid,
                                     const net::CounterSnapshot& after)>;
void JoinLeaveChurn(Instance* inst, Rng* rng, int ops,
                    const ChurnCost& on_pair = nullptr);

/// Sum of per-type deltas between two counter snapshots.
uint64_t SumTypes(const net::CounterSnapshot& before,
                  const net::CounterSnapshot& after,
                  std::initializer_list<net::MsgType> types);

/// Messages in the maintenance category (routing-table/link updates).
uint64_t MaintenanceDelta(const net::CounterSnapshot& before,
                          const net::CounterSnapshot& after);

/// Sum of per-type deltas over every type in `category` (derived from
/// net::CategoryOf, so new message types are picked up automatically).
uint64_t CategoryDelta(const net::CounterSnapshot& before,
                       const net::CounterSnapshot& after,
                       net::MsgCategory category);

/// Prints a titled text table and, when
/// opt.json_path is set (--json=PATH, or a bench default installed via
/// SetJsonMirror), mirrors its rows into the JSON file.
void Emit(const std::string& title, const TablePrinter& table,
          const Options& opt);

}  // namespace bench
}  // namespace baton

#endif  // BATON_BENCH_COMMON_EXPERIMENT_H_
