// Heap allocations on BATON's routing and join paths. This binary replaces
// the global operator new with a counting one; every tests/*.cc file is its
// own executable, so no other test runs under the counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "baton/baton.h"
#include "fixtures.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

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
