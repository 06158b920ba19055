#include "obs/metrics.h"

#include "util/json.h"

namespace baton {
namespace obs {

namespace {

void AppendHistJson(std::ostream& out, const LogHistogram& h) {
  out << "{\"count\": " << h.count() << ", \"mean\": " << h.Mean()
      << ", \"p50\": " << h.Quantile(0.50) << ", \"p90\": " << h.Quantile(0.90)
      << ", \"p99\": " << h.Quantile(0.99) << ", \"max\": " << h.max() << "}";
}

}  // namespace

uint64_t& Registry::Counter(const std::string& name) {
  return counters_[name];
}

int64_t& Registry::Gauge(const std::string& name) { return gauges_[name]; }

LogHistogram& Registry::Hist(const std::string& name) { return hists_[name]; }

std::vector<uint64_t>& Registry::PerNode(const std::string& family) {
  return per_node_[family];
}

uint64_t Registry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t Registry::GaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const LogHistogram* Registry::FindHist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

const std::vector<uint64_t>* Registry::FindPerNode(
    const std::string& family) const {
  auto it = per_node_.find(family);
  return it == per_node_.end() ? nullptr : &it->second;
}

LogHistogram Registry::NodeLoad(const std::string& family, size_t n) const {
  LogHistogram dist;
  const std::vector<uint64_t>* fam = FindPerNode(family);
  for (size_t i = 0; i < n; ++i) {
    dist.Add(fam != nullptr && i < fam->size() ? (*fam)[i] : 0);
  }
  return dist;
}

void Registry::AppendJson(std::ostream& out) const {
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": " << v;
    first = false;
  }
  out << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": " << v;
    first = false;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists_) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(name) << "\": ";
    AppendHistJson(out, h);
    first = false;
  }
  out << "}, \"per_node\": {";
  first = true;
  for (const auto& [family, vec] : per_node_) {
    LogHistogram dist = NodeLoad(family, vec.size());
    out << (first ? "" : ", ") << "\"" << JsonEscape(family)
        << "\": {\"nodes\": " << vec.size() << ", \"sum\": " << dist.sum()
        << ", \"mean\": " << dist.Mean() << ", \"max\": " << dist.max()
        << ", \"p50\": " << dist.Quantile(0.50)
        << ", \"p99\": " << dist.Quantile(0.99) << "}";
    first = false;
  }
  out << "}}";
}

}  // namespace obs
}  // namespace baton
