// Figure 8(e): average messages per range query vs network size. Chord is
// absent by design: "hashing destroys the ordering of data", so a DHT cannot
// answer range queries without flooding (Capability::kRangeSearch is how the
// generic API expresses that).
//
// Expected shape: BATON ~ O(log N + X) where X is the number of nodes the
// range spans; the multiway tree pays its more expensive routing phase.
#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

constexpr Key kDomainHi = 1000000000;

void RangeSeries(Instance* inst, Rng* rng, Key width, int queries,
                 RunningStat* msgs, RunningStat* nodes) {
  for (int i = 0; i < queries; ++i) {
    Key lo = rng->UniformInt(1, kDomainHi - width - 1);
    auto st = inst->overlay->RangeSearch(
        inst->members[rng->NextBelow(inst->members.size())], lo, lo + width);
    BATON_CHECK(st.ok());
    msgs->Add(static_cast<double>(st.messages));
    nodes->Add(static_cast<double>(st.nodes));
  }
}

void Run(const Options& opt) {
  // Queries cover 0.1% of the key space: at N = 10000 that is ~10 nodes.
  const Key width = kDomainHi / 1000;
  TablePrinter table(
      {"N", "baton", "baton_nodes", "multiway", "multiway_nodes", "chord"});
  for (size_t n : opt.sizes) {
    RunningStat b, bn, m, mn;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0x8e));
      workload::UniformKeys keys(1, kDomainHi);

      {
        auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                               opt.keys_per_node, &keys);
        RangeSeries(&bi, &rng, width, opt.queries, &b, &bn);
      }
      {
        auto mi = BuildOverlay("multiway", n, seed, {}, opt.keys_per_node,
                               &keys);
        RangeSeries(&mi, &rng, width, opt.queries, &m, &mn);
      }
    }
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                  TablePrinter::Num(b.mean()), TablePrinter::Num(bn.mean()),
                  TablePrinter::Num(m.mean()), TablePrinter::Num(mn.mean()),
                  "n/a"});
  }
  Emit("Fig 8(e): avg messages per range query (0.1% selectivity)", table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv, {baton::bench::QueryFlags()}));
  return 0;
}
