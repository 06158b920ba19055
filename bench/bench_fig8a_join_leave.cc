// Figure 8(a): average messages to find the destination node of a join and
// the replacement node of a leave, vs network size; BATON vs Chord vs the
// multiway tree, all driven through the generic overlay::Overlay API.
//
// Expected shape (paper section V-A): BATON's costs stay nearly flat and far
// below log N (requests hop between leaf levels, never through the root);
// Chord pays a full O(log N) lookup per join and grows with N; the multiway
// tree joins cheaply but pays heavily to leave (it polls all children).
#include <cstdio>

#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

constexpr int kChurnOps = 100;

/// JoinLeaveChurn with each phase's cost = the type-filtered delta of the
/// "find the join node" / "find the replacement" search messages.
void ChurnSeries(Instance* inst, Rng* rng,
                 std::initializer_list<net::MsgType> join_types,
                 std::initializer_list<net::MsgType> leave_types,
                 RunningStat* join_stat, RunningStat* leave_stat) {
  JoinLeaveChurn(inst, rng, kChurnOps,
                 [&](const auto& before, const auto& mid, const auto& after) {
                   join_stat->Add(
                       static_cast<double>(SumTypes(before, mid, join_types)));
                   leave_stat->Add(
                       static_cast<double>(SumTypes(mid, after, leave_types)));
                 });
}

void Run(const Options& opt) {
  TablePrinter table({"N", "baton_join", "baton_leave", "chord_join",
                      "chord_leave", "multiway_join", "multiway_leave"});
  for (size_t n : opt.sizes) {
    RunningStat bj, bl, cj, cl, mj, ml;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0x8a));

      workload::UniformKeys keys(1, 1000000000);
      {
        auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                               opt.keys_per_node, &keys);
        ChurnSeries(&bi, &rng, {net::MsgType::kJoinForward},
                    {net::MsgType::kReplacementForward}, &bj, &bl);
      }
      {
        auto ci = BuildOverlay("chord", n, seed);
        // Chord's successor absorbs the leaver: no replacement search, so
        // the leave column stays 0 by construction.
        ChurnSeries(&ci, &rng, {net::MsgType::kChordLookup}, {}, &cj, &cl);
      }
      {
        auto mi = BuildOverlay("multiway", n, seed, {}, opt.keys_per_node,
                               &keys);
        ChurnSeries(&mi, &rng,
                    {net::MsgType::kMultiwayJoinForward,
                     net::MsgType::kMultiwayProbe},
                    {net::MsgType::kMultiwayChildPoll}, &mj, &ml);
      }
    }
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                  TablePrinter::Num(bj.mean()), TablePrinter::Num(bl.mean()),
                  TablePrinter::Num(cj.mean()), TablePrinter::Num(cl.mean()),
                  TablePrinter::Num(mj.mean()), TablePrinter::Num(ml.mean())});
  }
  Emit("Fig 8(a): avg messages to find join node / replacement node", table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(argc, argv));
  return 0;
}
