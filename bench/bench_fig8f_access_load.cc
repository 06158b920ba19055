// Figure 8(f): access load (messages processed per node) by tree level,
// separately for an insertion workload and a search workload.
//
// Expected shape (the paper's key fairness claim): insertion load is almost
// constant across levels; search load is slightly *higher at the leaves*
// than at the root -- the tree does not overload nodes near the root,
// because routing runs sideways and through leaf levels, not through the
// root as in a centralized tree.
#include <map>
#include <vector>

#include "bench_common/experiment.h"
#include "overlay/baton_overlay.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

/// Messages of one category processed by (delivered to) each live
/// receiver. Attached to the network for one measured phase only; no peer
/// registers during a phase.
class CategoryLoad : public net::MessageObserver {
 public:
  CategoryLoad(const net::Network& net, net::MsgCategory category)
      : net_(net), category_(category), processed_(net.num_registered()) {}

  void OnMessage(net::PeerId /*from*/, net::PeerId to, net::MsgType type,
                 uint64_t /*send_tick*/, uint64_t /*deliver_tick*/) override {
    if (net::CategoryOf(type) == category_ && net_.IsAlive(to)) {
      ++processed_.at(to);
    }
  }
  uint64_t ProcessedBy(net::PeerId p) const { return processed_.at(p); }

 private:
  const net::Network& net_;
  net::MsgCategory category_;
  std::vector<uint64_t> processed_;
};

void Run(const Options& opt) {
  const size_t n = opt.sizes.empty() ? 4000 : opt.sizes.back();
  TablePrinter table(
      {"level", "nodes", "insert_msgs_per_node", "search_msgs_per_node"});
  std::map<int, RunningStat> insert_load, search_load;
  std::map<int, uint64_t> level_nodes;

  for (int s = 0; s < opt.seeds; ++s) {
    uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
    Rng rng(Mix64(seed ^ 0x8f));
    workload::UniformKeys keys(1, 1000000000);
    auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                           opt.keys_per_node, &keys);
    const BatonNetwork& tree = overlay::BatonBackend(*bi.overlay);

    // Insertion phase: keys_per_node additional keys per node on average.
    CategoryLoad inserts(*bi.net(), net::MsgCategory::kData);
    bi.net()->AttachObserver(&inserts);
    LoadOverlay(&bi, opt.keys_per_node, &keys, &rng);
    bi.net()->AttachObserver(nullptr);
    std::map<int, RunningStat> ins_this;
    for (net::PeerId p : bi.members) {
      int level = static_cast<int>(tree.node(p).pos.level);
      ins_this[level].Add(static_cast<double>(inserts.ProcessedBy(p)));
    }

    // Search phase: `queries` exact-match queries from random origins.
    CategoryLoad searches(*bi.net(), net::MsgCategory::kQuery);
    bi.net()->AttachObserver(&searches);
    for (int i = 0; i < 10 * opt.queries; ++i) {
      auto res = bi.overlay->ExactSearch(
          bi.members[rng.NextBelow(bi.members.size())], keys.Next(&rng));
      BATON_CHECK(res.ok());
    }
    bi.net()->AttachObserver(nullptr);
    for (net::PeerId p : bi.members) {
      int level = static_cast<int>(tree.node(p).pos.level);
      search_load[level].Add(static_cast<double>(searches.ProcessedBy(p)));
      insert_load[level].Add(ins_this[level].mean());
      ++level_nodes[level];
    }
  }

  for (const auto& [level, stat] : insert_load) {
    table.AddRow({TablePrinter::Int(level),
                  TablePrinter::Int(static_cast<int64_t>(
                      level_nodes[level] / static_cast<uint64_t>(opt.seeds))),
                  TablePrinter::Num(stat.mean()),
                  TablePrinter::Num(search_load[level].mean())});
  }
  Emit("Fig 8(f): access load per node by tree level (N=" +
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
