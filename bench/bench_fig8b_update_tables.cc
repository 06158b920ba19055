// Figure 8(b): average messages to update routing tables after a join or a
// leave, vs network size.
//
// Expected shape: BATON stays O(log N) (the paper's 6 log N join / 8 log N
// leave bounds); Chord pays O(log^2 N) (finger initialisation plus
// update_others) and dominates; the multiway tree is cheapest (it maintains
// almost no routing state -- and pays for it in search cost, Fig 8(d)).
#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

constexpr int kChurnOps = 100;

/// JoinLeaveChurn with one `cost` mapping a snapshot pair to the
/// table-update message count, applied to both phases.
template <typename CostFn>
void ChurnSeries(Instance* inst, Rng* rng, CostFn&& cost,
                 RunningStat* join_stat, RunningStat* leave_stat) {
  JoinLeaveChurn(inst, rng, kChurnOps,
                 [&](const auto& before, const auto& mid, const auto& after) {
                   join_stat->Add(static_cast<double>(cost(before, mid)));
                   leave_stat->Add(static_cast<double>(cost(mid, after)));
                 });
}

void Run(const Options& opt) {
  TablePrinter table({"N", "baton_join", "baton_leave", "chord_join",
                      "chord_leave", "multiway_join", "multiway_leave"});
  for (size_t n : opt.sizes) {
    RunningStat bj, bl, cj, cl, mj, ml;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0x8b));

      workload::UniformKeys keys(1, 1000000000);
      {
        auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                               opt.keys_per_node, &keys);
        ChurnSeries(
            &bi, &rng,
            [](const auto& a, const auto& b) { return MaintenanceDelta(a, b); },
            &bj, &bl);
      }
      {
        auto ci = BuildOverlay("chord", n, seed);
        auto update_types = {net::MsgType::kChordJoinInit,
                             net::MsgType::kChordUpdateOthers,
                             net::MsgType::kChordNotify,
                             net::MsgType::kChordKeyMove};
        ChurnSeries(
            &ci, &rng,
            [&](const auto& a, const auto& b) {
              return SumTypes(a, b, update_types);
            },
            &cj, &cl);
      }
      {
        auto mi = BuildOverlay("multiway", n, seed, {}, opt.keys_per_node,
                               &keys);
        auto update_types = {net::MsgType::kMultiwayLinkUpdate,
                             net::MsgType::kContentTransfer};
        ChurnSeries(
            &mi, &rng,
            [&](const auto& a, const auto& b) {
              return SumTypes(a, b, update_types);
            },
            &mj, &ml);
      }
    }
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                  TablePrinter::Num(bj.mean()), TablePrinter::Num(bl.mean()),
                  TablePrinter::Num(cj.mean()), TablePrinter::Num(cl.mean()),
                  TablePrinter::Num(mj.mean()), TablePrinter::Num(ml.mean())});
  }
  Emit("Fig 8(b): avg messages to update routing tables on join / leave",
       table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(argc, argv));
  return 0;
}
