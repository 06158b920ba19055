// Latency study: attaches a link-latency model and a sim::Clock (src/sim)
// to the overlay's network so hop counts become simulated wall-clock
// latencies. Queries are issued from a precomputed arrival schedule; the
// network, via net::Network::AttachSim, timestamps every message the
// protocol sends and yields each query's critical-path time (sequential
// hops add, parallel fan-out takes the max over branches). The run reports
// the latency distribution alongside the message counts the paper plots.
//
//   $ ./examples/event_driven_sim
#include <cstdio>
#include <vector>

#include "baton/baton.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "util/histogram.h"

int main() {
  using namespace baton;

  net::Network net;
  BatonNetwork overlay(BatonConfig{}, &net, /*seed=*/7);
  Rng rng(3);
  std::vector<PeerId> peers{overlay.Bootstrap()};
  while (peers.size() < 500) {
    peers.push_back(overlay.Join(peers[rng.NextBelow(peers.size())]).value());
  }
  for (int i = 0; i < 25000; ++i) {
    overlay.Insert(peers[rng.NextBelow(peers.size())],
                   rng.UniformInt(1, 999999999))
        .ToString();
  }

  // Wide-area-ish links: 20-80 ms per hop. Attached after the build so only
  // the queries below are timed.
  sim::UniformLatency link(20, 80);
  sim::Clock clock;  // moved to each query's completion by the network
  net.AttachSim(&clock, &link, /*seed=*/11);

  // Poisson-ish arrivals: one query every ~5 ms for 2000 queries. The
  // whole schedule is drawn before the first query runs.
  std::vector<sim::Time> arrivals;
  sim::Time t = 0;
  for (int q = 0; q < 2000; ++q) {
    t += rng.NextBelow(10) + 1;
    arrivals.push_back(t);
  }

  Histogram latency_ms;
  Histogram hops_hist;
  for (size_t q = 0; q < arrivals.size(); ++q) {
    PeerId from = peers[rng.NextBelow(peers.size())];
    Key k = rng.UniformInt(1, 999999999);
    net.BeginOpWindow();
    auto r = overlay.ExactSearch(from, k);
    sim::Time total = net.EndOpWindow();  // critical path of the routing
    if (!r.ok()) continue;
    hops_hist.Add(r.value().hops);
    // The answer itself travels one (long) path back to the origin.
    total += link.Sample(&rng);
    latency_ms.Add(static_cast<int64_t>(total));
  }

  std::printf("%llu queries over %llu virtual ms\n",
              static_cast<unsigned long long>(latency_ms.total_count()),
              static_cast<unsigned long long>(arrivals.back()));
  std::printf("hops:    mean %.2f  p50 %lld  p99 %lld\n", hops_hist.Mean(),
              static_cast<long long>(hops_hist.Percentile(0.5)),
              static_cast<long long>(hops_hist.Percentile(0.99)));
  std::printf("latency: mean %.1f ms  p50 %lld ms  p99 %lld ms\n",
              latency_ms.Mean(),
              static_cast<long long>(latency_ms.Percentile(0.5)),
              static_cast<long long>(latency_ms.Percentile(0.99)));
  std::printf("messages on the wire: %llu\n",
              static_cast<unsigned long long>(net.total_messages()));
  return 0;
}
