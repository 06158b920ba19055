// Figure 8(d): average messages per exact-match query vs network size. One
// generic query loop serves every backend through overlay::Overlay.
//
// Expected shape: BATON ~log N, slightly above Chord (the 1.44 height
// factor); the multiway tree clearly worse (hop-by-hop, no sideways tables).
//
// --key-dist=zipf:THETA skews the query keys (first entry only; the stored
// data stays uniform). Default uniform matches the original output exactly.
#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

void QuerySeries(Instance* inst, Rng* rng, workload::KeyGenerator* keys,
                 int queries, RunningStat* stat) {
  for (int i = 0; i < queries; ++i) {
    auto st = inst->overlay->ExactSearch(
        inst->members[rng->NextBelow(inst->members.size())], keys->Next(rng));
    BATON_CHECK(st.ok());
    stat->Add(static_cast<double>(st.messages));
  }
}

void Run(const Options& opt) {
  // Queries draw from --key-dist's first entry (default uniform, whose
  // draws are identical to the preload generator's -- same table as before
  // the flag existed); the preload stays uniform either way.
  KeyDistSpec qdist = opt.key_dists.empty() ? KeyDistSpec{} : opt.key_dists[0];
  std::unique_ptr<workload::KeyGenerator> qkeys =
      MakeKeyGenerator(qdist, 1, 1000000000);

  TablePrinter table({"N", "baton", "chord", "multiway"});
  for (size_t n : opt.sizes) {
    RunningStat b, c, m;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0x8d));
      workload::UniformKeys keys(1, 1000000000);

      {
        auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                               opt.keys_per_node, &keys);
        QuerySeries(&bi, &rng, qkeys.get(), opt.queries, &b);
      }
      {
        auto ci = BuildOverlay("chord", n, seed);
        LoadOverlay(&ci, opt.keys_per_node, &keys, &rng);
        QuerySeries(&ci, &rng, qkeys.get(), opt.queries, &c);
      }
      {
        auto mi = BuildOverlay("multiway", n, seed, {}, opt.keys_per_node,
                               &keys);
        QuerySeries(&mi, &rng, qkeys.get(), opt.queries, &m);
      }
    }
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                  TablePrinter::Num(b.mean()), TablePrinter::Num(c.mean()),
                  TablePrinter::Num(m.mean())});
  }
  Emit("Fig 8(d): avg messages per exact-match query", table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv, {baton::bench::QueryFlags(), baton::bench::KeyDistFlags()}));
  return 0;
}
