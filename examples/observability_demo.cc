// Observability walkthrough: attach an obs::Observer to an overlay, run a
// small churn + query workload through the unified overlay::Overlay API,
// then read the observer's typed metrics (message counters, per-operation
// tallies, per-node load families) and export the causal trace as Chrome
// trace-event JSON -- open observability_demo_trace.json in Perfetto
// (https://ui.perfetto.dev) to see one span per operation with its message
// deliveries nested underneath.
//
//   $ ./examples/observability_demo
#include <cstdio>
#include <fstream>

#include "obs/observer.h"
#include "obs/trace.h"
#include "overlay/registry.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/check.h"
#include "util/rng.h"

int main() {
  using namespace baton;

  auto overlay = overlay::Make("baton");
  Rng rng(42);
  std::vector<net::PeerId> members{overlay->Bootstrap()};
  while (members.size() < 200) {
    auto joined = overlay->Join(members[rng.NextBelow(members.size())]);
    if (joined.ok()) members.push_back(joined.peer);
  }
  for (int i = 0; i < 2000; ++i) {
    BATON_CHECK(overlay
                    ->Insert(members[rng.NextBelow(members.size())],
                             rng.UniformInt(1, 999999999))
                    .ok());
  }

  // Attach AFTER the build, exactly like AttachLatency: only the workload
  // below is observed. The latency model and clock give the trace real
  // (simulated) timestamps; without them, ticks fall back to the global
  // message index, which is still causally ordered.
  sim::Clock clock;
  sim::UniformLatency link(5, 20);
  overlay->AttachLatency(&clock, &link, /*seed=*/7);
  obs::Observer observer(/*tracing=*/true);
  overlay->AttachObserver(&observer);

  for (int q = 0; q < 500; ++q) {
    BATON_CHECK(overlay
                    ->ExactSearch(members[rng.NextBelow(members.size())],
                                  rng.UniformInt(1, 999999999))
                    .ok());
  }
  for (int q = 0; q < 50; ++q) {
    Key lo = rng.UniformInt(1, 999000000);
    BATON_CHECK(overlay
                    ->RangeSearch(members[rng.NextBelow(members.size())], lo,
                                  lo + 1000000)
                    .ok());
  }
  for (int q = 0; q < 20; ++q) {
    BATON_CHECK(
        overlay->Join(members[rng.NextBelow(members.size())]).ok());
  }

  // ---- The metrics answer "what happened?" after the fact ----------------
  std::printf("messages observed:   %llu (maintenance %llu, query %llu)\n",
              static_cast<unsigned long long>(observer.messages()),
              static_cast<unsigned long long>(
                  observer.messages(net::MsgCategory::kMaintenance)),
              static_cast<unsigned long long>(
                  observer.messages(net::MsgCategory::kQuery)));
  const obs::LogHistogram& ticks =
      observer.op(obs::OpKind::kExact).latency_hist;
  std::printf("exact search ticks:  mean %.1f  p50 %llu  p99 %llu\n",
              ticks.Mean(),
              static_cast<unsigned long long>(ticks.Quantile(0.5)),
              static_cast<unsigned long long>(ticks.Quantile(0.99)));
  // Per-node load distribution: is the message load balanced, or do a few
  // hot nodes carry the tree? (The paper's load-balance claim, measurable.)
  obs::LogHistogram load = obs::NodeLoad(observer.msgs_in(), overlay->size());
  std::printf("per-node msgs_in:    mean %.1f  p99 %llu  max %llu  (skew "
              "%.2fx)\n",
              load.Mean(), static_cast<unsigned long long>(load.Quantile(0.99)),
              static_cast<unsigned long long>(load.max()),
              load.Mean() > 0
                  ? static_cast<double>(load.max()) / load.Mean()
                  : 0.0);

  // ---- The trace answers "in what order, caused by what?" -----------------
  std::ofstream out("observability_demo_trace.json");
  obs::WriteChromeTrace(out, {{"baton N=200", observer.trace()}});
  std::printf("%zu op spans, %zu message events -> "
              "observability_demo_trace.json\n",
              observer.trace()->span_count(),
              observer.trace()->message_count());
  return 0;
}
