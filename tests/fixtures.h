// Overlay fixtures shared by the test binaries (bench_common is not linked
// into tests). Both grow by joins through random current members, drawing
// one rng value per join, so a seed always rebuilds the same overlay.
#ifndef BATON_TESTS_FIXTURES_H_
#define BATON_TESTS_FIXTURES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baton/baton.h"
#include "overlay/registry.h"
#include "util/rng.h"

namespace baton {
namespace fixtures {

/// A bare BatonNetwork on its own network, bootstrapped with one member.
struct Overlay {
  net::Network net;
  std::unique_ptr<BatonNetwork> overlay;
  std::vector<PeerId> members;

  explicit Overlay(uint64_t seed, BatonConfig cfg = {}) {
    overlay = std::make_unique<BatonNetwork>(cfg, &net, seed);
    members.push_back(overlay->Bootstrap());
  }
  void Grow(size_t n, Rng* rng) {
    while (members.size() < n) {
      PeerId contact = members[rng->NextBelow(members.size())];
      auto joined = overlay->Join(contact);
      ASSERT_TRUE(joined.ok()) << joined.status().ToString();
      members.push_back(joined.value());
    }
  }
  void RemoveMember(PeerId p) {
    members.erase(std::find(members.begin(), members.end(), p));
  }
  std::vector<PeerId> Alive() const {
    std::vector<PeerId> out;
    for (PeerId m : members) {
      if (net.IsAlive(m)) out.push_back(m);
    }
    return out;
  }
};

/// Any registered backend grown to n members through overlay::Overlay.
struct Built {
  std::unique_ptr<overlay::Overlay> ov;
  std::vector<net::PeerId> members;
};

inline Built Grow(const std::string& name, size_t n, uint64_t seed) {
  overlay::Config cfg;
  cfg.seed = seed;
  Built b;
  b.ov = overlay::Make(name, cfg);
  BATON_CHECK(b.ov != nullptr) << "unknown backend " << name;
  Rng rng(Mix64(seed));
  b.members.push_back(b.ov->Bootstrap());
  while (b.members.size() < n) {
    auto st = b.ov->Join(b.members[rng.NextBelow(b.members.size())]);
    BATON_CHECK(st.ok()) << st.status.ToString();
    b.members.push_back(st.peer);
  }
  return b;
}

}  // namespace fixtures
}  // namespace baton

#endif  // BATON_TESTS_FIXTURES_H_
