// Name-keyed overlay factory. overlay::Make("baton", cfg) constructs a
// ready-to-bootstrap backend (each owns its own net::Network); benches and
// tests sweep RegisteredNames() to run every backend through the same
// code. A new backend (e.g. the ART tree from PAPERS.md) adds one row to
// the table in registry.cc and every generic bench picks it up.
#ifndef BATON_OVERLAY_REGISTRY_H_
#define BATON_OVERLAY_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "baton/baton_network.h"
#include "d3tree/d3tree_network.h"
#include "multiway/multiway_network.h"
#include "overlay/overlay.h"

namespace baton {
namespace overlay {

/// Per-backend construction parameters; each backend reads only its own
/// section (plus `seed`). Defaults reproduce the paper's setup.
struct Config {
  uint64_t seed = 1;
  /// "baton": full BatonConfig (domain, load balancing, replication, ...).
  BatonConfig baton;
  /// "multiway": domain and fan-out.
  multiway::MultiwayConfig multiway;
  /// "d3tree": domain and bucket (cluster) sizing.
  d3tree::D3Config d3tree;
};

/// Constructs the backend registered under `name`, or nullptr if unknown.
std::unique_ptr<Overlay> Make(const std::string& name,
                              const Config& cfg = {});

bool IsRegistered(const std::string& name);

/// All registered backend names, sorted.
std::vector<std::string> RegisteredNames();

}  // namespace overlay
}  // namespace baton

#endif  // BATON_OVERLAY_REGISTRY_H_
