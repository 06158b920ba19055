// Figure 8(i): extra messages per exact-match query caused by concurrent
// joins/leaves. While a batch of K membership changes is "in flight" --
// their routing-table update notifications are withheld -- queries hit stale
// links, time out against departed peers and detour via the fault-tolerant
// paths of section III-D.
//
// Expected shape: extra messages grow with the number of concurrent changes.
#include "bench_common/experiment.h"
#include "overlay/baton_overlay.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

void Run(const Options& opt) {
  const size_t n = opt.sizes.empty() ? 2000 : opt.sizes.front();
  const std::vector<int> churn_levels = {0, 16, 32, 64, 128, 256, 512};
  TablePrinter table({"concurrent_ops", "msgs_per_query", "extra_per_query",
                      "failed_queries_pct"});

  std::vector<RunningStat> msgs(churn_levels.size());
  std::vector<RunningStat> fails(churn_levels.size());
  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
    workload::UniformKeys keys(1, 1000000000);
    for (size_t ci = 0; ci < churn_levels.size(); ++ci) {
      int churn = churn_levels[ci];
      Rng rng(Mix64(seed ^ 0x92));
      auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                             opt.keys_per_node, &keys);
      BatonNetwork& tree = overlay::BatonBackend(*bi.overlay);

      // Apply K membership changes whose remote notifications stay queued.
      tree.SetDeferUpdates(true);
      int applied = 0;
      for (int i = 0; i < churn; ++i) {
        if (rng.NextBool(0.5)) {
          auto joined = bi.overlay->Join(
              bi.members[rng.NextBelow(bi.members.size())]);
          if (joined.ok()) {
            bi.members.push_back(joined.peer);
            ++applied;
          }
        } else {
          size_t idx = rng.NextBelow(bi.members.size());
          if (bi.overlay->Leave(bi.members[idx]).ok()) {
            bi.members.erase(bi.members.begin() + static_cast<long>(idx));
            ++applied;
          }
        }
      }
      (void)applied;

      // Queries race the in-flight updates.
      uint64_t query_msgs = 0;
      int failed = 0;
      auto before = bi.net()->Snapshot();
      for (int q = 0; q < opt.queries; ++q) {
        auto res = bi.overlay->ExactSearch(
            bi.members[rng.NextBelow(bi.members.size())], keys.Next(&rng));
        if (!res.ok()) ++failed;
      }
      query_msgs = net::Network::Delta(before, bi.net()->Snapshot());
      msgs[ci].Add(static_cast<double>(query_msgs) / opt.queries);
      fails[ci].Add(100.0 * failed / opt.queries);
    }
  }

  double baseline = msgs[0].mean();
  for (size_t ci = 0; ci < churn_levels.size(); ++ci) {
    table.AddRow({TablePrinter::Int(churn_levels[ci]),
                  TablePrinter::Num(msgs[ci].mean()),
                  TablePrinter::Num(msgs[ci].mean() - baseline),
                  TablePrinter::Num(fails[ci].mean())});
  }
  Emit("Fig 8(i): extra query messages under concurrent joins/leaves (N=" +
           std::to_string(n) + ")",
       table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv, {baton::bench::QueryFlags()}));
  return 0;
}
