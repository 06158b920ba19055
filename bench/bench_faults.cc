// Graceful degradation under message loss, per backend: the resilience
// bench the fault subsystem (fault::Plan + fault::Policy) exists for.
//
// Per (backend, N, seed) the bench builds and preloads the overlay once,
// records a pure query trace (exact searches, plus range searches on
// backends that support them), then sweeps drop probability x retry budget
// over that identical state: each cell attaches a fresh seeded fault::Plan
// dropping (and optionally duplicating, --dup=P) query-category messages,
// installs a fault::Policy with the cell's retry budget, and replays the
// trace with the same origin rng stream -- cells differ ONLY in injected
// faults and recovery budget.
//
// The table shows the trade the policy buys: at retry budget 0 every
// dropped message kills its query (ok collapses as drop grows); budget
// r >= 1 re-issues lost queries from a rerouted origin (Overlay::
// RetryOrigin) and buys back success at the cost of extra messages and
// retries/op, with gave_up counting ops whose budget ran out anyway. A
// fault-free baseline row (drop 0, budget 0) anchors each backend. On
// backends with fail/recovery support a second table replays a
// workload::MakeCorrelatedFailTrace -- whole regions of consecutive
// canonical-order members crashing at once -- and reports how queries
// fare across the outage/recovery cycle.
//
// Everything is deterministic: same flags and --seed reproduce both tables
// byte-for-byte (plans are seeded per cell, origins per trace replay).
// The JSON mirror defaults to BENCH_faults.json (this bench's primary
// artifact); --json=PATH overrides it.
//
//   ./bench_faults --sizes=200 --seeds=1
//   ./bench_faults --overlay=baton,chord --drop=0.02,0.2 --retries=0,2
//       --dup=0.05 --latency=const:1
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/experiment.h"
#include "fault/fault.h"
#include "workload/replay.h"

namespace baton {
namespace bench {
namespace {

constexpr Key kDomainHi = 1000000000;

/// One fault cell's outcomes over a query-trace replay, mergeable across
/// seeds.
struct CellOutcome {
  uint64_t ops = 0;
  uint64_t ok = 0;
  uint64_t gave_up = 0;
  uint64_t degraded = 0;
  uint64_t retries = 0;
  uint64_t dropped = 0;   // messages lost across all attempts
  uint64_t messages = 0;  // total message bill, retries included
  uint64_t latency = 0;   // total simulated ticks, backoff included

  void Merge(const CellOutcome& o) {
    ops += o.ops;
    ok += o.ok;
    gave_up += o.gave_up;
    degraded += o.degraded;
    retries += o.retries;
    dropped += o.dropped;
    messages += o.messages;
    latency += o.latency;
  }
};

/// Correlated-outage replay outcomes (kFailRecovery backends only).
struct BurstOutcome {
  bool supported = false;
  uint64_t bursts = 0;       // kFailRegion events executed
  uint64_t burst_msgs = 0;   // fail + recovery message bill
  uint64_t exact_ops = 0;
  uint64_t exact_ok = 0;
  uint64_t degraded = 0;     // ops that absorbed faults (burst rows)

  void Merge(const BurstOutcome& o) {
    supported = supported || o.supported;
    bursts += o.bursts;
    burst_msgs += o.burst_msgs;
    exact_ops += o.exact_ops;
    exact_ok += o.exact_ok;
    degraded += o.degraded;
  }
};

struct SeedResult {
  CellOutcome baseline;                         // faults detached
  std::vector<std::vector<CellOutcome>> cells;  // [drop][retry]
  BurstOutcome burst;
};

SeedResult RunSeed(const std::string& name, size_t n, int s,
                   const Options& opt, const FaultFlags& faults) {
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
  workload::UniformKeys preload(1, kDomainHi);

  Instance inst = BuildPreloaded(name, n, seed, opt.keys_per_node, &preload);
  Attach(&inst, opt, seed);
  overlay::Overlay* ov = inst.overlay.get();

  // One query trace replayed in every cell: exact searches plus (where
  // supported) range queries a few node-ranges wide. Queries mutate
  // nothing, so every cell sees the identical overlay.
  const bool ranges = ov->Supports(overlay::kRangeSearch);
  const Key range_width = static_cast<Key>(
      4 * (kDomainHi / static_cast<Key>(n == 0 ? 1 : n)));
  workload::Trace trace;
  {
    workload::UniformKeys gen(1, kDomainHi);
    Rng krng(Mix64(seed ^ 0x7a3e));
    trace.reserve(static_cast<size_t>(opt.queries));
    for (int q = 0; q < opt.queries; ++q) {
      if (ranges && q % 4 == 3) {
        Key lo = gen.Next(&krng);
        trace.push_back({workload::OpType::kRange, lo, lo + range_width});
      } else {
        trace.push_back({workload::OpType::kExact, gen.Next(&krng), 0});
      }
    }
  }

  // Replays the trace under the currently attached plan/policy. The origin
  // rng stream restarts identically per cell.
  auto run_cell = [&]() {
    CellOutcome out;
    Rng org(Mix64(seed ^ 0x0b51));
    for (const workload::Op& op : trace) {
      net::PeerId from = inst.members[org.NextBelow(inst.members.size())];
      overlay::OpStats st =
          op.type == workload::OpType::kRange
              ? ov->RangeSearch(from, op.key, op.key_hi)
              : ov->ExactSearch(from, op.key);
      ++out.ops;
      if (st.ok()) ++out.ok;
      if (st.gave_up) ++out.gave_up;
      if (st.degraded) ++out.degraded;
      out.retries += static_cast<uint64_t>(st.retries > 0 ? st.retries : 0);
      out.dropped += st.dropped_msgs;
      out.messages += st.messages;
      out.latency += st.latency_ticks;
    }
    return out;
  };

  SeedResult out;
  out.baseline = run_cell();  // faults detached: the byte-identical anchor
  out.cells.assign(faults.drop_rates.size(),
                   std::vector<CellOutcome>(faults.retry_budgets.size()));
  for (size_t d = 0; d < faults.drop_rates.size(); ++d) {
    for (size_t r = 0; r < faults.retry_budgets.size(); ++r) {
      fault::PlanConfig pcfg;
      pcfg.seed = Mix64(seed ^ (0xfad7u + (d << 8) + r));
      fault::Plan plan(pcfg);
      fault::LinkFaults lf;
      lf.drop = faults.drop_rates[d];
      lf.duplicate = faults.dup_rate;
      plan.SetCategoryFaults(net::MsgCategory::kQuery, lf);

      fault::Policy pol;
      pol.max_retries = faults.retry_budgets[r];
      pol.timeout_ticks = faults.timeout_ticks;
      pol.backoff_ticks = 4;
      ov->SetResilience(pol);
      ov->AttachFaults(&plan);
      out.cells[d][r] = run_cell();
      ov->AttachFaults(nullptr);
      ov->SetResilience(fault::Policy{});
    }
  }

  // Correlated regional outages (mutates the overlay: run last). The
  // replay fails bursts of consecutive canonical-order members, recovers
  // them, and interleaves queries -- the "subtree goes dark" scenario the
  // message-level sweep above cannot express.
  if (ov->Supports(overlay::kFailRecovery)) {
    out.burst.supported = true;
    workload::CorrelatedFailMix mix;
    mix.bursts = 3;
    mix.burst_width = 4;
    mix.exacts = static_cast<size_t>(opt.queries) / 4;
    mix.inserts = static_cast<size_t>(opt.queries) / 8;
    workload::UniformKeys gen(1, kDomainHi);
    Rng trng(Mix64(seed ^ 0xb0457));
    workload::Trace burst_trace =
        workload::MakeCorrelatedFailTrace(&trng, &gen, mix);
    Rng rrng(Mix64(seed ^ 0x4e91a));
    workload::ReplayResult rr =
        workload::Replay(*ov, burst_trace, &rrng, &inst.members);
    const workload::OpAggregate& fr =
        rr.of(workload::OpType::kFailRegion);
    const workload::OpAggregate& ex = rr.of(workload::OpType::kExact);
    out.burst.bursts = fr.count;
    out.burst.burst_msgs = fr.messages_hist.sum();
    out.burst.exact_ops = ex.count;
    out.burst.exact_ok = ex.ok;
    out.burst.degraded = fr.degraded + ex.degraded;
  }
  return out;
}

std::string Pct(uint64_t num, uint64_t den) {
  if (den == 0) return "n/a";
  return TablePrinter::Num(100.0 * static_cast<double>(num) /
                           static_cast<double>(den));
}

void Run(const Options& opt, const FaultFlags& faults) {
  const std::vector<std::string> overlays = SelectedOverlays(opt);
  std::vector<SeedTask> tasks = SizeMajorTasks(opt, overlays);
  std::vector<SeedResult> results =
      RunTasks<SeedResult>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunSeed(t.overlay, t.n, t.seed, opt, faults);
      });

  TablePrinter table({"N", "overlay", "drop", "retries", "ops", "ok",
                      "ok_pct", "gave_up", "degraded", "retr/op", "dropped",
                      "msg/op", "lat/op"});
  auto add_row = [&](size_t n, const std::string& name,
                     const std::string& drop, const std::string& budget,
                     const CellOutcome& m) {
    auto per_op = [&](uint64_t v) {
      return m.ops == 0 ? "n/a"
                        : TablePrinter::Num(static_cast<double>(v) /
                                            static_cast<double>(m.ops));
    };
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name, drop,
                  budget, TablePrinter::Int(static_cast<int64_t>(m.ops)),
                  TablePrinter::Int(static_cast<int64_t>(m.ok)),
                  Pct(m.ok, m.ops),
                  TablePrinter::Int(static_cast<int64_t>(m.gave_up)),
                  TablePrinter::Int(static_cast<int64_t>(m.degraded)),
                  per_op(m.retries),
                  TablePrinter::Int(static_cast<int64_t>(m.dropped)),
                  per_op(m.messages), per_op(m.latency)});
  };

  TablePrinter bursts({"N", "overlay", "bursts", "width", "msg/burst",
                       "exact_ok_pct", "degraded"});
  bool any_burst = false;

  size_t idx = 0;
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      CellOutcome baseline;
      std::vector<std::vector<CellOutcome>> cells(
          faults.drop_rates.size(),
          std::vector<CellOutcome>(faults.retry_budgets.size()));
      BurstOutcome burst;
      for (int s = 0; s < opt.seeds; ++s) {
        const SeedResult& r = results[idx++];
        baseline.Merge(r.baseline);
        for (size_t d = 0; d < faults.drop_rates.size(); ++d) {
          for (size_t b = 0; b < faults.retry_budgets.size(); ++b) {
            cells[d][b].Merge(r.cells[d][b]);
          }
        }
        burst.Merge(r.burst);
      }
      add_row(n, name, "none", "0", baseline);
      for (size_t d = 0; d < faults.drop_rates.size(); ++d) {
        char drop[32];
        std::snprintf(drop, sizeof drop, "%.2f", faults.drop_rates[d]);
        for (size_t b = 0; b < faults.retry_budgets.size(); ++b) {
          char budget[32];
          std::snprintf(budget, sizeof budget, "%d", faults.retry_budgets[b]);
          add_row(n, name, drop, budget, cells[d][b]);
        }
      }
      if (burst.supported) {
        any_burst = true;
        auto per_burst =
            burst.bursts == 0
                ? std::string("n/a")
                : TablePrinter::Num(static_cast<double>(burst.burst_msgs) /
                                    static_cast<double>(burst.bursts));
        bursts.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                       TablePrinter::Int(static_cast<int64_t>(burst.bursts)),
                       "4", per_burst,
                       Pct(burst.exact_ok, burst.exact_ops),
                       TablePrinter::Int(
                           static_cast<int64_t>(burst.degraded))});
      }
    }
  }
  Emit("Query success under message loss (drop rate x retry budget)", table,
       opt);
  if (any_burst) {
    Emit("Correlated regional outages (fail/recover bursts)", bursts, opt);
  }
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::FaultFlags faults;
  baton::bench::Options opt = baton::bench::ParseOptions(
      argc, argv, {baton::bench::QueryFlags(), baton::bench::BackendFlags(),
                   baton::bench::LatencyFlags(), faults.Flags()});
  // This bench's JSON table is its primary artifact: default the mirror on.
  if (opt.json_path.empty()) {
    opt.json_path = "BENCH_faults.json";
    baton::bench::SetJsonMirror(opt.json_path);
  }
  baton::bench::Run(opt, faults);
  return 0;
}
