// Micro benchmarks (google-benchmark) for the core data structures: position
// arithmetic, the routing-row move on a level change, key storage, the
// in-order member walk over the position directory, end-to-end exact and
// range search on a prebuilt overlay, the serving engine's open loop, the
// observer's booking of one operation, and the Zipf sampler.
#include <benchmark/benchmark.h>

#include "baton/baton.h"
#include "bench_common/experiment.h"
#include "obs/observer.h"
#include "serve/engine.h"
#include "util/zipf.h"
#include "workload/workload.h"

namespace baton {
namespace {

void BM_PositionInOrderKey(benchmark::State& state) {
  Position p{20, 12345};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.InOrderKey());
    p.number = (p.number % 100000) + 1;
  }
}
BENCHMARK(BM_PositionInOrderKey);

// A node that changes level hands its routing row back to the old level's
// slab and takes a nulled one at the new level (BatonNetwork::SetPosition);
// each iteration is one such move, between levels L and L+1.
void BM_RoutingRowLevelMove(benchmark::State& state) {
  auto level = static_cast<uint32_t>(state.range(0));
  RoutingRows rows[2] = {RoutingRows(level), RoutingRows(level + 1)};
  int at = 0;
  uint32_t row = rows[at].Acquire(/*owner=*/0);
  for (auto _ : state) {
    rows[at].Release(row);
    at ^= 1;
    row = rows[at].Acquire(/*owner=*/0);
    benchmark::DoNotOptimize(rows[at].hot(row, /*left=*/false));
  }
}
BENCHMARK(BM_RoutingRowLevelMove)->Arg(8)->Arg(16)->Arg(24);

void BM_KeyBagInsertErase(benchmark::State& state) {
  Rng rng(1);
  KeyBag bag;
  for (int i = 0; i < 1000; ++i) bag.Insert(rng.UniformInt(1, 1000000000));
  for (auto _ : state) {
    Key k = rng.UniformInt(1, 1000000000);
    bag.Insert(k);
    benchmark::DoNotOptimize(bag.Erase(k));
  }
}
BENCHMARK(BM_KeyBagInsertErase);

void BM_KeyBagCountInRange(benchmark::State& state) {
  Rng rng(2);
  KeyBag bag;
  for (int i = 0; i < 10000; ++i) bag.Insert(rng.UniformInt(1, 1000000000));
  for (auto _ : state) {
    Key lo = rng.UniformInt(1, 900000000);
    benchmark::DoNotOptimize(bag.CountInRange(lo, lo + 50000000));
  }
}
BENCHMARK(BM_KeyBagCountInRange);

void BM_MembersInOrderWalk(benchmark::State& state) {
  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, 11);
  Rng rng(11);
  std::vector<net::PeerId> members{overlay.Bootstrap()};
  for (int i = 1; i < state.range(0); ++i) {
    members.push_back(
        overlay.Join(members[rng.NextBelow(members.size())]).value());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.Members().size());
  }
}
BENCHMARK(BM_MembersInOrderWalk)->Arg(1024)->Arg(16384);

// A joins-only overlay of `n` nodes holding 10 uniform keys per node.
struct SearchBed {
  net::Network net;
  BatonNetwork overlay{BatonConfig{}, &net, 99};
  std::vector<net::PeerId> members;
  Rng rng{3};

  explicit SearchBed(int64_t n) {
    members.push_back(overlay.Bootstrap());
    for (int64_t i = 1; i < n; ++i) {
      members.push_back(
          overlay.Join(members[rng.NextBelow(members.size())]).value());
    }
    for (int64_t i = 0; i < 10 * n; ++i) {
      Status s = overlay.Insert(members[rng.NextBelow(members.size())],
                                rng.UniformInt(1, 999999999));
      BATON_CHECK(s.ok());
    }
  }
  net::PeerId Origin() { return members[rng.NextBelow(members.size())]; }
};

// 65,536 nodes is lookup-uniform's bed size; the smaller beds fit in cache,
// so only that one shows what the memory layout costs a hop.
void BM_ExactSearch(benchmark::State& state) {
  SearchBed bed(state.range(0));
  for (auto _ : state) {
    auto res = bed.overlay.ExactSearch(bed.Origin(),
                                       bed.rng.UniformInt(1, 999999999));
    benchmark::DoNotOptimize(res.ok());
  }
}
BENCHMARK(BM_ExactSearch)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

// lookup-uniform's range query: width 10^6, routed to its first node and
// scanned along adjacent links and right-table jumps.
void BM_RangeSearch(benchmark::State& state) {
  SearchBed bed(state.range(0));
  for (auto _ : state) {
    Key lo = bed.rng.UniformInt(1, 999000000);
    auto res = bed.overlay.RangeSearch(bed.Origin(), lo, lo + 1000000);
    benchmark::DoNotOptimize(res.ok());
  }
}
BENCHMARK(BM_RangeSearch)->Arg(4096)->Arg(65536);

void BM_JoinLeaveCycle(benchmark::State& state) {
  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, 7);
  Rng rng(4);
  std::vector<net::PeerId> members{overlay.Bootstrap()};
  for (int i = 1; i < state.range(0); ++i) {
    members.push_back(
        overlay.Join(members[rng.NextBelow(members.size())]).value());
  }
  for (auto _ : state) {
    auto joined =
        overlay.Join(members[rng.NextBelow(members.size())]).value();
    members.push_back(joined);
    size_t idx = rng.NextBelow(members.size());
    BATON_CHECK(overlay.Leave(members[idx]).ok());
    members.erase(members.begin() + static_cast<long>(idx));
  }
}
BENCHMARK(BM_JoinLeaveCycle)->Arg(1024);

// serve::Engine's open loop on a 2,000-node load-balanced BATON bed: zipf:0.9
// exact lookups under Poisson arrivals at 0.8 of the bed's closed-loop
// capacity, serve-open-loop's reference load. An iteration serves the whole
// trace; `per_op` is the time per admitted op, the overlay's work and the
// engine's event loop together.
void BM_EngineOpenLoop(benchmark::State& state) {
  constexpr Key kDomainHi = 1000000000;
  workload::UniformKeys preload(1, kDomainHi);
  bench::Instance bed = bench::BuildPreloaded("baton", 2000, 7, 10, &preload);
  workload::ZipfKeys zipf(1, kDomainHi, 0.9);
  Rng key_rng(8);
  workload::Trace trace;
  for (int i = 0; i < 20000; ++i) {
    trace.push_back({workload::OpType::kExact, zipf.Next(&key_rng), 0});
  }
  serve::Engine engine(bed.overlay.get(), &bed.members, {});
  Rng calibration_rng(9);
  const serve::EngineResult closed =
      engine.RunClosedLoop(trace, &calibration_rng);
  const double capacity = static_cast<double>(closed.completed) /
                          static_cast<double>(closed.max_node_served);
  uint64_t admitted = 0;
  for (auto _ : state) {
    serve::PoissonArrivals arrivals(0.8 * capacity, 10);
    Rng op_rng(9);
    serve::EngineResult res = engine.Run(trace, &arrivals, &op_rng);
    benchmark::DoNotOptimize(res.completions.data());
    admitted += res.admitted;
  }
  state.counters["per_op"] =
      benchmark::Counter(static_cast<double>(admitted),
                         benchmark::Counter::kIsRate |
                             benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineOpenLoop)->Unit(benchmark::kMillisecond);

// obs::Observer with metrics only, as churn-lossy attaches it: an iteration
// books one operation, BeginOp and EndOp around 23 delivered messages
// (churn-lossy sends 23.3 per op), between random peers of a 10,000-peer id
// space, with random message types and op kinds.
void BM_ObserverOp(benchmark::State& state) {
  constexpr int kMsgsPerOp = 23;
  struct Msg {
    net::PeerId from;
    net::PeerId to;
    net::MsgType type;
  };
  Rng rng(11);
  std::vector<Msg> msgs(4096);
  for (Msg& m : msgs) {
    m.from = static_cast<net::PeerId>(rng.NextBelow(10000));
    m.to = static_cast<net::PeerId>(rng.NextBelow(10000));
    m.type = static_cast<net::MsgType>(rng.NextBelow(net::kNumMsgTypes));
  }
  std::vector<obs::OpKind> kinds(256);
  for (obs::OpKind& k : kinds) {
    k = static_cast<obs::OpKind>(rng.NextBelow(obs::kNumOpKinds));
  }
  obs::Observer observer;
  size_t next_msg = 0;
  size_t next_op = 0;
  uint64_t tick = 0;
  for (auto _ : state) {
    const obs::OpKind kind = kinds[next_op++ % kinds.size()];
    observer.BeginOp(kind, tick);
    for (int i = 0; i < kMsgsPerOp; ++i) {
      const Msg& m = msgs[next_msg++ % msgs.size()];
      observer.OnMessage(m.from, m.to, m.type, tick, tick + 1);
      ++tick;
    }
    observer.EndOp(kind, tick,
                   {true, msgs[next_msg % msgs.size()].to,
                    static_cast<int>(next_op % 16), kMsgsPerOp, tick % 64});
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(observer.messages());
}
BENCHMARK(BM_ObserverOp);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfGenerator zipf(1u << 20, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_UniformKeyGen(benchmark::State& state) {
  Rng rng(6);
  workload::UniformKeys gen(1, 1000000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(&rng));
  }
}
BENCHMARK(BM_UniformKeyGen);

}  // namespace
}  // namespace baton

BENCHMARK_MAIN();
