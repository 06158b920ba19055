// Wall-clock throughput harness: the first point on the repo's performance
// trajectory. Where every fig8/ablation bench measures *protocol* cost
// (message counts, which must never change), this one measures *simulator*
// cost: how fast the machine actually executes builds, loads, query replays
// and churn, per backend and network size.
//
// Phases per (backend, N, seed):
//   build   Bootstrap + N-1 joins through random contacts   -> joins/sec
//   load    keys-per-node * N uniform inserts               -> inserts/sec
//   replay  --queries exact-match queries via workload::Replay -> queries/sec
//   churn   --queries/2 join+leave pairs                    -> ops/sec
//
// Every row mirrors into BENCH_wallclock.json (or --json=PATH) with the
// schema {backend, N, seed, op, ops, wall_ms, ops_per_sec} so CI can track
// the trajectory across PRs. A scale sweep is just --sizes: e.g.
//   bench_wallclock --overlay=baton --sizes=131072 --seeds=1 --keys=10
//       --phases=build,load,replay
// demonstrates a 131k-node BATON build, 13x the paper's largest experiment.
//
// Each (backend, N, seed) triple is an independent task; --threads=N runs
// them on a worker pool and appends their rows in task order, cutting a
// multi-backend sweep's wall-clock roughly by the thread count. Concurrent
// tasks share the machine, so per-row timings are noisier than a
// sequential run -- keep --threads=1 (the default) when absolute numbers
// matter more than total sweep time.
//
// --phases=a,b,c (default: all four) selects phases. Churn is excluded from
// the 100k+ sweep: a data-less build at that scale leaves width-1 range
// slivers at the in-order boundaries of early internal nodes (a node keeps
// its slice once both children are taken, and later joiners halve the
// neighbouring slivers indefinitely), and the join walk can starve inside a
// cluster of such sliver nodes -- a pre-existing protocol-scale limitation
// recorded in ROADMAP.md, not a wall-clock matter.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common/experiment.h"
#include "workload/replay.h"

namespace baton {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

using Rows = std::vector<std::vector<std::string>>;

void AddPhaseRow(Rows* rows, const std::string& backend, size_t n, int seed,
                 const char* op, uint64_t ops, double wall_ms) {
  double secs = wall_ms / 1000.0;
  double rate = secs > 0 ? static_cast<double>(ops) / secs : 0.0;
  rows->push_back({backend, TablePrinter::Int(static_cast<int64_t>(n)),
                   TablePrinter::Int(seed), op,
                   TablePrinter::Int(static_cast<int64_t>(ops)),
                   TablePrinter::Num(wall_ms, 2), TablePrinter::Num(rate, 1)});
}

struct Phases {
  /// The build always executes (later phases need the overlay); the flag
  /// only controls whether its timing row is reported.
  bool build = true;
  bool load = true;
  bool replay = true;
  bool churn = true;
};

Rows RunOne(const std::string& backend, size_t n, int seed_idx,
            const Options& opt, const Phases& phases) {
  Rows rows;
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(seed_idx);

  // build: same growth loop as every figure bench (BuildOverlay), timed.
  // The join walk's hop-budget safety net defaults to a value calibrated
  // for the paper's N <= 10k; the 100k+ scale sweep needs more detour room
  // for the randomized walk (the budget changes nothing unless the walk
  // would otherwise abort -- protocol decisions and message costs are
  // untouched).
  overlay::Config cfg;
  cfg.baton.max_hops_factor = 64;
  auto t0 = Clock::now();
  Instance inst = BuildOverlay(backend, n, seed, cfg);
  double build_ms = MsSince(t0);
  if (phases.build) {
    AddPhaseRow(&rows, backend, n, seed_idx, "build", n, build_ms);
  }

  Rng rng(Mix64(seed ^ 0x3a11c10c));
  workload::UniformKeys gen(1, 1000000000);

  // load: keys-per-node * N inserts from random origins.
  uint64_t loads = opt.keys_per_node * n;
  if (phases.load && loads > 0) {
    t0 = Clock::now();
    LoadOverlay(&inst, opt.keys_per_node, &gen, &rng);
    AddPhaseRow(&rows, backend, n, seed_idx, "load", loads, MsSince(t0));
  }

  // replay: exact-match queries through the overlay-generic driver.
  if (phases.replay && opt.queries > 0) {
    workload::Trace trace = workload::MakeMixedTrace(
        &rng, &gen, 0, 0, static_cast<size_t>(opt.queries), 0, 0);
    t0 = Clock::now();
    workload::Replay(*inst.overlay, trace, &rng, &inst.members);
    AddPhaseRow(&rows, backend, n, seed_idx, "replay",
                static_cast<uint64_t>(opt.queries), MsSince(t0));
  }

  // churn: join+leave pairs (each pair is two membership ops).
  int pairs = opt.queries / 2;
  if (phases.churn && pairs > 0) {
    t0 = Clock::now();
    JoinLeaveChurn(&inst, &rng, pairs);
    AddPhaseRow(&rows, backend, n, seed_idx, "churn",
                static_cast<uint64_t>(2 * pairs), MsSince(t0));
  }
  return rows;
}

/// --phases=a,b,...: the phases to report (the build always runs).
Flag PhasesFlag(Phases* phases) {
  return {"phases", "a,b,...",
          "phases to report: build,load,replay,churn\n(default all)",
          [phases](const char* v, Options*) {
            *phases = Phases{false, false, false, false};
            const std::pair<const char*, bool*> kNames[] = {
                {"build", &phases->build},
                {"load", &phases->load},
                {"replay", &phases->replay},
                {"churn", &phases->churn}};
            for (const std::string& name : SplitList(v)) {
              bool known = false;
              for (const auto& [n, on] : kNames) {
                if (name == n) known = *on = true;
              }
              if (!known) {
                FlagError("bad --phases value '" + name +
                          "' (want build,load,replay,churn)");
              }
            }
            if (!phases->build && !phases->load && !phases->replay &&
                !phases->churn) {
              FlagError("--phases needs at least one phase");
            }
          }};
}

int Main(int argc, char** argv) {
  Phases phases;
  Options opt = ParseOptions(
      argc, argv, {QueryFlags(), BackendFlags(), {PhasesFlag(&phases)}});
  // This bench's JSON table is its primary artifact: default the mirror on.
  if (opt.json_path.empty()) {
    opt.json_path = "BENCH_wallclock.json";
    SetJsonMirror(opt.json_path);
  }

  std::vector<SeedTask> tasks = BackendMajorTasks(opt, SelectedOverlays(opt));
  std::vector<Rows> results =
      RunTasks<Rows>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunOne(t.overlay, t.n, t.seed, opt, phases);
      });

  TablePrinter table({"backend", "N", "seed", "op", "ops", "wall_ms",
                      "ops_per_sec"});
  for (const Rows& rows : results) {
    for (const std::vector<std::string>& row : rows) table.AddRow(row);
  }
  Emit("Wall-clock throughput (simulator execution speed, not messages)",
       table, opt);
  std::printf("JSON rows written to %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) { return baton::bench::Main(argc, argv); }
