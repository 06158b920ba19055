// obs::Registry: named counters, gauges and log-bucketed histograms with a
// global scope plus per-node counter families, so per-node message load,
// routing-table touches, restructure participation and replica traffic are
// queryable after any run. ART (arXiv:1201.2766) and D3-Tree
// (arXiv:1503.07905) argue their case on load distribution and tail
// behavior; the registry is what lets this repo measure those claims on
// every backend instead of reporting means only.
//
// Naming scheme (dots separate scopes, all lowercase):
//   net.messages              global delivered-message counter
//   net.msgs.<category>       per MsgCategory counters (maintenance, query..)
//   node.<family>             per-node counter families (msgs_in, msgs_out,
//                             routing_touch, restructure, replica_msgs)
//   op.<name>.count|ok        per-operation counters (exact, range, join...)
//   op.<name>.hops|messages|latency_ticks   per-operation histograms
//
// Accessors return references that stay valid for the registry's lifetime
// (node-based maps), so hot paths cache them once and update through the
// reference -- no per-event lookups.
#ifndef BATON_OBS_METRICS_H_
#define BATON_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/log_histogram.h"

namespace baton {
namespace obs {

class Registry {
 public:
  /// Named global counter; created at 0 on first access.
  uint64_t& Counter(const std::string& name);
  /// Named gauge (a settable point-in-time value, e.g. overlay size).
  int64_t& Gauge(const std::string& name);
  /// Named histogram; created empty on first access.
  LogHistogram& Hist(const std::string& name);
  /// Named per-node counter family, indexed by PeerId. Grows on demand via
  /// IncNode; absent nodes read as 0.
  std::vector<uint64_t>& PerNode(const std::string& family);

  /// Bumps family[node], growing the vector as new peers register.
  static void IncNode(std::vector<uint64_t>* family, uint32_t node,
                      uint64_t delta = 1) {
    if (node >= family->size()) family->resize(node + 1, 0);
    (*family)[node] += delta;
  }

  // ---- Read-side queries (0 / nullptr when the name was never written) ----
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  const LogHistogram* FindHist(const std::string& name) const;
  const std::vector<uint64_t>* FindPerNode(const std::string& family) const;

  /// Distribution of one per-node family across nodes [0, n) (absent
  /// entries count as 0) -- the load-balance / hot-spot view: its max vs
  /// Mean() is the skew factor, Quantile(0.99) the p99 node load.
  LogHistogram NodeLoad(const std::string& family, size_t n) const;

  /// JSON object {"counters":{...},"gauges":{...},"histograms":{name:
  /// {count,mean,p50,p90,p99,max}},"per_node":{family:{nodes,sum,mean,max,
  /// p50,p99}}} -- the metrics-snapshot artifact CI uploads. Deterministic.
  void AppendJson(std::ostream& out) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, LogHistogram> hists_;
  std::map<std::string, std::vector<uint64_t>> per_node_;
};

}  // namespace obs
}  // namespace baton

#endif  // BATON_OBS_METRICS_H_
