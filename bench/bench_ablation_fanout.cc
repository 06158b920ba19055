// Ablation (section V-A discussion): the multiway-tree baseline's fan-out
// trade-off. "if a node can have many children, the cost of join operation
// is low but the cost of leave operation is high; if a node has only a few
// children, the cost of join operation is increased".
//
// Also reports search cost: more fan-out flattens the tree but adds child
// probes per level -- there is no good setting, which is BATON's point.
// The avg_children column shows a further structural weakness: because each
// accept carves half of the acceptor's *remaining* range, later child slots
// cover exponentially less key space, so data-driven joins rarely fill the
// configured fan-out and the tree stays nearly binary in practice.
#include "bench_common/experiment.h"
#include "overlay/multiway_overlay.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

void Run(const Options& opt) {
  const size_t n = opt.sizes.empty() ? 2000 : opt.sizes.front();
  TablePrinter table({"fanout", "depth", "avg_children", "join_msgs",
                      "leave_msgs", "search_msgs"});
  for (int fanout : {2, 4, 8, 16}) {
    RunningStat depth, join, leave, search, kids;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0xab2));
      workload::UniformKeys keys(1, 1000000000);
      overlay::Config cfg;
      cfg.multiway.max_fanout = fanout;
      auto mi = BuildOverlay("multiway", n, seed, cfg, opt.keys_per_node,
                             &keys);
      const multiway::MultiwayNetwork& tree =
          overlay::MultiwayBackend(*mi.overlay);
      depth.Add(tree.Depth());
      for (net::PeerId m : tree.Members()) {
        size_t c = tree.node(m).children.size();
        if (c > 0) kids.Add(static_cast<double>(c));
      }

      for (int i = 0; i < 50; ++i) {
        auto joined =
            mi.overlay->Join(mi.members[rng.NextBelow(mi.members.size())]);
        BATON_CHECK(joined.ok());
        mi.members.push_back(joined.peer);
        join.Add(static_cast<double>(joined.messages));

        // The paper's leave-cost claim concerns internal nodes (the leaver
        // polls all children): pick one when possible.
        size_t idx = rng.NextBelow(mi.members.size());
        for (size_t probe = 0; probe < mi.members.size(); ++probe) {
          size_t j = (idx + probe) % mi.members.size();
          if (!tree.node(mi.members[j]).children.empty()) {
            idx = j;
            break;
          }
        }
        auto left = mi.overlay->Leave(mi.members[idx]);
        BATON_CHECK(left.ok());
        mi.members.erase(mi.members.begin() + static_cast<long>(idx));
        leave.Add(static_cast<double>(left.messages));
      }
      for (int i = 0; i < opt.queries / 2; ++i) {
        auto r = mi.overlay->ExactSearch(
            mi.members[rng.NextBelow(mi.members.size())], keys.Next(&rng));
        BATON_CHECK(r.ok());
        search.Add(static_cast<double>(r.messages));
      }
    }
    table.AddRow({TablePrinter::Int(fanout), TablePrinter::Num(depth.mean(), 1),
                  TablePrinter::Num(kids.mean(), 2),
                  TablePrinter::Num(join.mean()),
                  TablePrinter::Num(leave.mean()),
                  TablePrinter::Num(search.mean())});
  }
  Emit("Ablation: multiway-tree fan-out trade-off (N=" + std::to_string(n) +
           ")",
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
