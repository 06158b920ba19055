// Heap allocations on BATON's routing and join paths, counted by the global
// operator new that alloc_counter.h puts in this binary.
#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "baton/baton.h"
#include "fixtures.h"

namespace baton {
namespace {

/// Heap allocations one join may make on average: splitting the acceptor's
/// key bag, plus the amortised growth of the node vector, the routing rows,
/// the position directory and the network's per-peer state. This bed
/// measures 0.785; the join walk reuses scratch buffers, and building its
/// candidate vectors afresh on every step costs about 15 per join.
constexpr double kJoinAllocBudget = 1.0;

/// A 2,000-node overlay holding 16 uniform keys per node, warmed by 2,000
/// exact searches so that lazily grown state has reached its size.
struct WarmBed : fixtures::Overlay {
  Rng rng{17};

  WarmBed() : fixtures::Overlay(17) {
    Grow(2000, &rng);
    for (int i = 0; i < 16 * 2000; ++i) {
      BATON_CHECK(overlay->Insert(Origin(), RandomKey()).ok());
    }
    for (int i = 0; i < 2000; ++i) {
      BATON_CHECK(overlay->ExactSearch(Origin(), RandomKey()).ok());
    }
  }
  PeerId Origin() { return members[rng.NextBelow(members.size())]; }
  Key RandomKey() { return rng.UniformInt(1, 999999999); }
};

using alloc_counter::Allocations;

TEST(BatonAlloc, ExactSearchAllocatesNothing) {
  WarmBed bed;
  uint64_t before = Allocations();
  int hops = 0;
  for (int i = 0; i < 20000; ++i) {
    auto res = bed.overlay->ExactSearch(bed.Origin(), bed.RandomKey());
    ASSERT_TRUE(res.ok());
    hops += res.value().hops;
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_GT(hops, 20000);  // the searches did route
}

TEST(BatonAlloc, JoinsStayUnderTheirBudget) {
  WarmBed bed;
  uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) {
    auto joined = bed.overlay->Join(bed.Origin());
    ASSERT_TRUE(joined.ok());
    bed.members.push_back(joined.value());
  }
  double per_join = static_cast<double>(Allocations() - before) / 1000.0;
  EXPECT_LE(per_join, kJoinAllocBudget);
  bed.overlay->CheckInvariants();
}

}  // namespace
}  // namespace baton
