// Durability under churn (replication subsystem; beyond the paper's Fig. 8):
// key-loss rate and replication message overhead vs. replication factor r.
//
// For each network size the same membership-churn trace (joins, graceful
// leaves, single abrupt failures recovered immediately, index traffic) runs
// at r = 0..3. Expected shape: r = 0 reproduces the paper's behaviour --
// every failed node's keys vanish; any r >= 1 restores them all (loss stays
// zero while one failure at a time is outstanding), paying a per-insert push
// and a per-failure restore whose cost the overhead columns quantify.
#include <cstdio>

#include "bench_common/experiment.h"
#include "overlay/baton_overlay.h"
#include "util/stats.h"

namespace baton {
namespace bench {
namespace {

constexpr int kReplicationFactors[] = {0, 1, 2, 3};

uint64_t ReplicaDelta(const net::CounterSnapshot& before,
                      const net::CounterSnapshot& after) {
  return CategoryDelta(before, after, net::MsgCategory::kReplication);
}

void Run(const Options& opt) {
  TablePrinter table({"N", "r", "failures", "at_risk", "lost", "recovered",
                      "loss_pct", "repl_msgs", "repl_pct", "healed"});
  for (size_t n : opt.sizes) {
    for (int r : kReplicationFactors) {
      RunningStat at_risk_s, lost_s, recovered_s, repl_s, total_s, healed_s;
      RunningStat failures_s;  // failures actually executed (guards may skip)
      for (int s = 0; s < opt.seeds; ++s) {
        uint64_t seed = opt.base_seed + static_cast<uint64_t>(s);
        Rng rng(Mix64(seed ^ 0xd07a));
        workload::UniformKeys keys(1, 1000000000);
        overlay::Config cfg;
        cfg.baton = ReplicatedConfig(r);
        auto bi = BuildOverlay("baton", n, seed, cfg, opt.keys_per_node,
                               &keys);
        BatonNetwork& tree = overlay::BatonBackend(*bi.overlay);
        auto before = bi.net()->Snapshot();

        workload::ChurnMix mix;
        mix.joins = n / 20;
        mix.leaves = n / 20;
        mix.failures = n / 50;
        mix.inserts = n;
        mix.exacts = static_cast<size_t>(opt.queries);
        auto trace = workload::MakeChurnTrace(&rng, &keys, mix);

        auto live_member = [&]() {
          net::PeerId p;
          do {
            p = bi.members[rng.NextBelow(bi.members.size())];
          } while (!bi.net()->IsAlive(p));
          return p;
        };
        auto drop_member = [&](net::PeerId p) {
          for (size_t i = 0; i < bi.members.size(); ++i) {
            if (bi.members[i] == p) {
              bi.members.erase(bi.members.begin() + static_cast<long>(i));
              return;
            }
          }
        };

        uint64_t at_risk = 0, healed = 0, failures_run = 0;
        size_t ops = 0;
        for (const workload::Op& op : trace) {
          switch (op.type) {
            case workload::OpType::kJoin: {
              auto joined = bi.overlay->Join(live_member());
              if (joined.ok()) bi.members.push_back(joined.peer);
              break;
            }
            case workload::OpType::kLeave: {
              if (bi.overlay->size() <= 8) break;
              net::PeerId leaver = live_member();
              if (bi.overlay->Leave(leaver).ok()) drop_member(leaver);
              break;
            }
            case workload::OpType::kFail: {
              if (bi.overlay->size() <= 8) break;
              net::PeerId victim = live_member();
              at_risk += tree.node(victim).data.size();
              ++failures_run;
              BATON_CHECK(bi.overlay->Fail(victim).ok());
              // Single-failure trace: recovery completes before the next op.
              BATON_CHECK(bi.overlay->RecoverAllFailures().ok());
              drop_member(victim);
              break;
            }
            case workload::OpType::kInsert:
              BATON_CHECK(bi.overlay->Insert(live_member(), op.key).ok());
              break;
            case workload::OpType::kExact:
              // Single-failure trace + recovery-before-next-op above, so
              // routing never hits a dead node: OK status is guaranteed
              // (found/not-found is irrelevant to durability accounting).
              BATON_CHECK(
                  bi.overlay->ExactSearch(live_member(), op.key).ok());
              break;
            default:
              break;
          }
          // Background anti-entropy: periodic probe/heal pass.
          if (++ops % 512 == 0) {
            healed += tree.RepairReplicas().healed;
          }
        }
        bi.overlay->CheckInvariants();

        auto after = bi.net()->Snapshot();
        failures_s.Add(static_cast<double>(failures_run));
        at_risk_s.Add(static_cast<double>(at_risk));
        lost_s.Add(static_cast<double>(tree.lost_keys()));
        recovered_s.Add(static_cast<double>(tree.recovered_keys()));
        repl_s.Add(static_cast<double>(ReplicaDelta(before, after)));
        total_s.Add(static_cast<double>(net::Network::Delta(before, after)));
        healed_s.Add(static_cast<double>(healed));
      }
      double loss_pct = at_risk_s.mean() <= 0.0
                            ? 0.0
                            : 100.0 * lost_s.mean() / at_risk_s.mean();
      double repl_pct =
          total_s.mean() <= 0.0 ? 0.0 : 100.0 * repl_s.mean() / total_s.mean();
      table.AddRow({TablePrinter::Int(static_cast<int64_t>(n)),
                    TablePrinter::Int(r),
                    TablePrinter::Num(failures_s.mean(), 1),
                    TablePrinter::Num(at_risk_s.mean()),
                    TablePrinter::Num(lost_s.mean()),
                    TablePrinter::Num(recovered_s.mean()),
                    TablePrinter::Num(loss_pct),
                    TablePrinter::Num(repl_s.mean()),
                    TablePrinter::Num(repl_pct),
                    TablePrinter::Num(healed_s.mean())});
    }
  }
  Emit("Durability under churn: key loss and replication overhead vs r",
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
