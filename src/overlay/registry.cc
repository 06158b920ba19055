#include "overlay/registry.h"

#include "overlay/baton_overlay.h"
#include "overlay/chord_overlay.h"
#include "overlay/d3tree_overlay.h"
#include "overlay/multiway_overlay.h"

namespace baton {
namespace overlay {

namespace {

struct Backend {
  const char* name;
  std::unique_ptr<Overlay> (*make)(const Config& cfg);
};

// Sorted by name: RegisteredNames() returns this order, and multi-backend
// tables print their rows in it.
const Backend kBackends[] = {
    {"baton",
     [](const Config& cfg) -> std::unique_ptr<Overlay> {
       return std::make_unique<BatonOverlay>(cfg.baton, cfg.seed);
     }},
    {"chord",
     [](const Config& cfg) -> std::unique_ptr<Overlay> {
       return std::make_unique<ChordOverlay>(cfg.seed);
     }},
    {"d3tree",
     [](const Config& cfg) -> std::unique_ptr<Overlay> {
       return std::make_unique<D3TreeOverlay>(cfg.d3tree, cfg.seed);
     }},
    {"multiway",
     [](const Config& cfg) -> std::unique_ptr<Overlay> {
       return std::make_unique<MultiwayOverlay>(cfg.multiway, cfg.seed);
     }},
};

const Backend* Find(const std::string& name) {
  for (const Backend& b : kBackends) {
    if (name == b.name) return &b;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Overlay> Make(const std::string& name, const Config& cfg) {
  const Backend* b = Find(name);
  return b == nullptr ? nullptr : b->make(cfg);
}

bool IsRegistered(const std::string& name) { return Find(name) != nullptr; }

std::vector<std::string> RegisteredNames() {
  std::vector<std::string> names;
  for (const Backend& b : kBackends) names.emplace_back(b.name);
  return names;
}

}  // namespace overlay
}  // namespace baton
