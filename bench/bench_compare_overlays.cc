// Head-to-head comparison of every registered overlay backend under one
// identical workload, driven entirely through the generic overlay::Overlay
// interface + workload::Replay -- no per-backend wiring. This is the
// one-binary replacement for the comparison plumbing the fig8 benches used
// to duplicate: add a row to the backend table in overlay/registry.cc and
// it shows up here.
//
// Per backend and network size the bench builds the overlay (preloading
// order-preserving backends while they grow), replays the same mixed
// churn + query trace, and reports search hops, per-operation message
// costs, and the maintenance (routing-table update) traffic the churn
// induced. Backends without a capability print "n/a" in that column.
//
// Every (backend, N, seed) run is an independent task with its own
// Instance and network, so --threads=N executes them on a worker pool;
// samples are aggregated sequentially in task order afterwards, making the
// output byte-identical to a --threads=1 run.
//
// With --latency=const:N|uniform:LO,HI a sim/ latency model is attached
// and the search/range latency columns report simulated critical-path ticks
// (0 when no model is given; the message/hop columns are unaffected).
//
// The hops_p50/p99 and lat_p50/p99 columns come from mergeable log-bucket
// histograms filled during the same replay (one sample per exact search),
// and with --trace=PATH / --metrics=PATH each task additionally records a
// causal op/message trace (Chrome trace-event JSON, Perfetto-loadable) and
// a metrics snapshot.
//
//   ./bench_compare_overlays --sizes=200 --seeds=1
//   ./bench_compare_overlays --overlay=baton,chord,d3tree --sizes=1000
//   ./bench_compare_overlays --sizes=500 --latency=uniform:5,20 --threads=4
//   ./bench_compare_overlays --sizes=200 --trace=trace.json --metrics=m.json
#include <string>

#include "bench_common/experiment.h"
#include "util/stats.h"
#include "workload/replay.h"

namespace baton {
namespace bench {
namespace {

constexpr Key kDomainHi = 1000000000;

/// Samples from one (backend, N, seed) task.
struct SeedSample {
  double search_hops = 0, search_msgs = 0, search_lat = 0;
  double insert_msgs = 0, join_msgs = 0, leave_msgs = 0;
  double range_msgs = 0, range_lat = 0;
  bool range_supported = true;
  double maint = 0;
  bool has_maint = false;
  /// Full exact-search distributions (mergeable across seeds) behind the
  /// mean columns, so the table can report p50/p99 tails.
  obs::LogHistogram search_hops_hist, search_lat_hist;
  /// Per-task observability collector, kept alive past the Instance so
  /// --trace/--metrics can serialize it after all tasks finish (null when
  /// observability is off -- the zero-overhead default).
  std::unique_ptr<obs::Observer> observer;
};

SeedSample RunSeed(const std::string& name, size_t n, int s,
                   const Options& opt) {
  SeedSample out;
  uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
  workload::UniformKeys keys(1, kDomainHi);

  Instance inst = BuildPreloaded(name, n, seed, opt.keys_per_node, &keys);

  // Attach the latency model and observer after the build: the replayed ops
  // below are timed and traced, construction is not (and the protocol rng
  // streams are untouched either way). With neither --trace nor --metrics
  // the overlay runs with a null observer (no per-message work at all).
  Attach(&inst, opt, seed);

  workload::ChurnMix mix;
  mix.joins = n / 10;
  mix.leaves = n / 10;
  mix.inserts = static_cast<size_t>(opt.queries);
  mix.exacts = static_cast<size_t>(opt.queries);
  mix.ranges = static_cast<size_t>(opt.queries) / 10;
  mix.range_width = kDomainHi / 1000;  // 0.1% selectivity, as in Fig 8(e)
  Rng rng(Mix64(seed ^ 0xc03a));
  workload::Trace trace = workload::MakeChurnTrace(&rng, &keys, mix);

  auto before = inst.net()->Snapshot();
  workload::ReplayResult res =
      workload::Replay(*inst.overlay, trace, &rng, &inst.members);
  auto after = inst.net()->Snapshot();
  inst.overlay->CheckInvariants();

  using workload::OpType;
  out.search_hops = res.of(OpType::kExact).MeanHops();
  out.search_msgs = res.of(OpType::kExact).MeanMessages();
  out.search_lat = res.of(OpType::kExact).MeanLatency();
  out.insert_msgs = res.of(OpType::kInsert).MeanMessages();
  out.join_msgs = res.of(OpType::kJoin).MeanMessages();
  out.leave_msgs = res.of(OpType::kLeave).MeanMessages();
  if (!inst.overlay->Supports(overlay::kRangeSearch)) {
    out.range_supported = false;
  } else {
    out.range_msgs = res.of(OpType::kRange).MeanMessages();
    out.range_lat = res.of(OpType::kRange).MeanLatency();
  }
  uint64_t churn_ops =
      res.of(OpType::kJoin).count + res.of(OpType::kLeave).count;
  if (churn_ops > 0) {
    out.has_maint = true;
    out.maint = static_cast<double>(MaintenanceDelta(before, after)) /
                static_cast<double>(churn_ops);
  }
  out.search_hops_hist = res.of(OpType::kExact).hops_hist;
  out.search_lat_hist = res.of(OpType::kExact).latency_hist;
  out.observer = std::move(inst.observer);
  return out;
}

void Run(const Options& opt) {
  const std::vector<std::string> overlays = SelectedOverlays(opt);
  std::vector<SeedTask> tasks = SizeMajorTasks(opt, overlays);
  std::vector<SeedSample> results =
      RunTasks<SeedSample>(tasks, opt.threads, [&](const SeedTask& t) {
        return RunSeed(t.overlay, t.n, t.seed, opt);
      });

  TablePrinter table({"N", "overlay", "caps", "search_hops", "hops_p50",
                      "hops_p99", "search_msgs", "search_lat", "lat_p50",
                      "lat_p99", "range_msgs", "range_lat", "insert_msgs",
                      "join_msgs", "leave_msgs", "maint_per_churn"});
  size_t idx = 0;
  for (size_t n : opt.sizes) {
    for (const std::string& name : overlays) {
      struct {
        RunningStat search_hops, search_msgs, search_lat, range_msgs,
            range_lat;
        RunningStat insert_msgs, join_msgs, leave_msgs, maint_msgs;
        obs::LogHistogram hops_hist, lat_hist;
        bool range_supported = true;
      } st;
      for (int s = 0; s < opt.seeds; ++s) {
        const SeedSample& r = results[idx++];
        st.search_hops.Add(r.search_hops);
        st.search_msgs.Add(r.search_msgs);
        st.search_lat.Add(r.search_lat);
        st.hops_hist.Merge(r.search_hops_hist);
        st.lat_hist.Merge(r.search_lat_hist);
        st.insert_msgs.Add(r.insert_msgs);
        st.join_msgs.Add(r.join_msgs);
        st.leave_msgs.Add(r.leave_msgs);
        if (!r.range_supported) {
          st.range_supported = false;
        } else {
          st.range_msgs.Add(r.range_msgs);
          st.range_lat.Add(r.range_lat);
        }
        if (r.has_maint) st.maint_msgs.Add(r.maint);
      }
      uint32_t caps = overlay::Make(name)->capabilities();
      auto p = [](const obs::LogHistogram& h, double q) {
        return TablePrinter::Int(static_cast<int64_t>(h.Quantile(q)));
      };
      table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)), name,
                    overlay::CapabilitiesToString(caps),
                    TablePrinter::Num(st.search_hops.mean()),
                    p(st.hops_hist, 0.50), p(st.hops_hist, 0.99),
                    TablePrinter::Num(st.search_msgs.mean()),
                    TablePrinter::Num(st.search_lat.mean()),
                    p(st.lat_hist, 0.50), p(st.lat_hist, 0.99),
                    st.range_supported ? TablePrinter::Num(st.range_msgs.mean())
                                       : "n/a",
                    st.range_supported ? TablePrinter::Num(st.range_lat.mean())
                                       : "n/a",
                    TablePrinter::Num(st.insert_msgs.mean()),
                    TablePrinter::Num(st.join_msgs.mean()),
                    TablePrinter::Num(st.leave_msgs.mean()),
                    TablePrinter::Num(st.maint_msgs.mean())});
    }
  }
  Emit("Overlay comparison: same trace, every registered backend", table, opt);
  std::vector<const obs::Observer*> observers;
  observers.reserve(results.size());
  for (const SeedSample& r : results) observers.push_back(r.observer.get());
  WriteObsArtifacts(opt, tasks, observers);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv,
      {baton::bench::QueryFlags(), baton::bench::BackendFlags(),
       baton::bench::LatencyFlags(), baton::bench::ObsFlags()}));
  return 0;
}
