// Figure 8(c): average messages per insert and delete operation vs network
// size, on a data-loaded network. One generic series per backend: insert
// `queries` keys, then delete them, reading each operation's cost straight
// from OpStats::messages.
//
// Expected shape: BATON and Chord both ~log N, BATON slightly above Chord
// (tree height can reach 1.44 log2 N); the multiway tree clearly worse.
#include "bench_common/experiment.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

void InsertDeleteSeries(Instance* inst, Rng* rng, workload::KeyGenerator* keys,
                        int ops, RunningStat* ins_stat, RunningStat* del_stat) {
  std::vector<Key> inserted;
  for (int i = 0; i < ops; ++i) {
    Key k = keys->Next(rng);
    inserted.push_back(k);
    auto st = inst->overlay->Insert(
        inst->members[rng->NextBelow(inst->members.size())], k);
    BATON_CHECK(st.ok());
    ins_stat->Add(static_cast<double>(st.messages));
  }
  for (int i = 0; i < ops; ++i) {
    auto st = inst->overlay->Delete(
        inst->members[rng->NextBelow(inst->members.size())],
        inserted[static_cast<size_t>(i)]);
    BATON_CHECK(st.ok());
    del_stat->Add(static_cast<double>(st.messages));
  }
}

void Run(const Options& opt) {
  TablePrinter table({"N", "baton_ins", "baton_del", "chord_ins", "chord_del",
                      "multiway_ins", "multiway_del"});
  for (size_t n : opt.sizes) {
    RunningStat bi_s, bd_s, ci_s, cd_s, mi_s, md_s;
    for (int s = 0; s < opt.seeds; ++s) {
      uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
      Rng rng(Mix64(seed ^ 0x8c));
      workload::UniformKeys keys(1, 1000000000);
      int ops = opt.queries;

      {
        auto bi = BuildOverlay("baton", n, seed, BalancedOverlayConfig(),
                               opt.keys_per_node, &keys);
        InsertDeleteSeries(&bi, &rng, &keys, ops, &bi_s, &bd_s);
      }
      {
        auto ci = BuildOverlay("chord", n, seed);
        LoadOverlay(&ci, opt.keys_per_node, &keys, &rng);
        InsertDeleteSeries(&ci, &rng, &keys, ops, &ci_s, &cd_s);
      }
      {
        auto mi = BuildOverlay("multiway", n, seed, {}, opt.keys_per_node,
                               &keys);
        InsertDeleteSeries(&mi, &rng, &keys, ops, &mi_s, &md_s);
      }
    }
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                  TablePrinter::Num(bi_s.mean()), TablePrinter::Num(bd_s.mean()),
                  TablePrinter::Num(ci_s.mean()), TablePrinter::Num(cd_s.mean()),
                  TablePrinter::Num(mi_s.mean()),
                  TablePrinter::Num(md_s.mean())});
  }
  Emit("Fig 8(c): avg messages per insert / delete", table, opt);
}

}  // namespace
}  // namespace bench
}  // namespace baton

int main(int argc, char** argv) {
  baton::bench::Run(baton::bench::ParseOptions(
      argc, argv, {baton::bench::QueryFlags()}));
  return 0;
}
