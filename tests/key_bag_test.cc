// Unit tests for KeyBag (per-node key storage with order statistics).
#include <gtest/gtest.h>

#include "util/key_bag.h"
#include "util/rng.h"

namespace baton {
namespace {

TEST(KeyBag, InsertContainsErase) {
  KeyBag bag;
  EXPECT_TRUE(bag.empty());
  bag.Insert(5);
  bag.Insert(3);
  bag.Insert(5);
  EXPECT_EQ(bag.size(), 3u);
  EXPECT_TRUE(bag.Contains(5));
  EXPECT_TRUE(bag.Contains(3));
  EXPECT_FALSE(bag.Contains(4));
  EXPECT_TRUE(bag.Erase(5));
  EXPECT_EQ(bag.size(), 2u);
  EXPECT_TRUE(bag.Contains(5));  // one duplicate left
  EXPECT_TRUE(bag.Erase(5));
  EXPECT_FALSE(bag.Contains(5));
  EXPECT_FALSE(bag.Erase(5));
}

TEST(KeyBag, MinMaxMedian) {
  KeyBag bag;
  for (Key k : {9, 1, 5, 7, 3}) bag.Insert(k);
  EXPECT_EQ(bag.Min(), 1);
  EXPECT_EQ(bag.Max(), 9);
  EXPECT_EQ(bag.Median(), 5);  // upper median of {1,3,5,7,9}
}

TEST(KeyBag, KthSmallest) {
  KeyBag bag;
  for (Key k : {40, 10, 30, 20}) bag.Insert(k);
  EXPECT_EQ(bag.Kth(0), 10);
  EXPECT_EQ(bag.Kth(1), 20);
  EXPECT_EQ(bag.Kth(3), 40);
}

TEST(KeyBag, CountInRange) {
  KeyBag bag;
  for (Key k = 0; k < 100; k += 10) bag.Insert(k);
  EXPECT_EQ(bag.CountInRange(0, 100), 10u);
  EXPECT_EQ(bag.CountInRange(10, 30), 2u);   // 10, 20
  EXPECT_EQ(bag.CountInRange(15, 15), 0u);
  EXPECT_EQ(bag.CountInRange(95, 200), 0u);
}

TEST(KeyBag, ExtractBelowSplitsExactly) {
  KeyBag bag;
  for (Key k = 1; k <= 10; ++k) bag.Insert(k);
  KeyBag low = bag.ExtractBelow(6);
  EXPECT_EQ(low.size(), 5u);
  EXPECT_EQ(low.Max(), 5);
  EXPECT_EQ(bag.Min(), 6);
  EXPECT_EQ(bag.size(), 5u);
}

TEST(KeyBag, ExtractAtLeast) {
  KeyBag bag;
  for (Key k = 1; k <= 10; ++k) bag.Insert(k);
  KeyBag high = bag.ExtractAtLeast(8);
  EXPECT_EQ(high.size(), 3u);
  EXPECT_EQ(high.Min(), 8);
  EXPECT_EQ(bag.Max(), 7);
}

TEST(KeyBag, ExtractBelowWithDuplicatesAtPivot) {
  KeyBag bag;
  for (Key k : {1, 2, 2, 2, 3}) bag.Insert(k);
  KeyBag low = bag.ExtractBelow(2);
  EXPECT_EQ(low.size(), 1u);  // only the 1; all 2s stay
  EXPECT_EQ(bag.Min(), 2);
}

TEST(KeyBag, AbsorbMovesEverything) {
  KeyBag a, b;
  a.Insert(1);
  b.Insert(2);
  b.Insert(3);
  a.Absorb(&b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.SortedKeys(), (std::vector<Key>{1, 2, 3}));
}

TEST(KeyBag, LazyBufferFlushTransparency) {
  // Exercise the flush threshold: interleave inserts and reads past the
  // buffer size; results must match a reference multiset.
  KeyBag bag;
  Rng rng(3);
  std::multiset<Key> ref;
  for (int i = 0; i < 1000; ++i) {
    Key k = rng.UniformInt(0, 99);
    if (rng.NextBool(0.7)) {
      bag.Insert(k);
      ref.insert(k);
    } else {
      bool erased = bag.Erase(k);
      auto it = ref.find(k);
      EXPECT_EQ(erased, it != ref.end());
      if (it != ref.end()) ref.erase(it);
    }
    EXPECT_EQ(bag.size(), ref.size());
  }
  std::vector<Key> expect(ref.begin(), ref.end());
  EXPECT_EQ(bag.SortedKeys(), expect);
}

TEST(KeyBag, NegativeKeysSupported) {
  KeyBag bag;
  bag.Insert(-5);
  bag.Insert(5);
  EXPECT_EQ(bag.Min(), -5);
  EXPECT_EQ(bag.CountInRange(-10, 0), 1u);
}

// ---------------------------------------------------------------------------
// Differential test: every mutating operation (Insert / Erase / the four
// Extract* splits / Absorb) against a std::multiset reference, interleaved
// randomly so extraction hits bags in every flush state (pending buffer
// empty, partially filled, just merged).
// ---------------------------------------------------------------------------

std::vector<Key> Sorted(const std::multiset<Key>& ref) {
  return std::vector<Key>(ref.begin(), ref.end());
}

TEST(KeyBag, DifferentialMixedOpsAgainstMultiset) {
  Rng rng(0xbead);
  KeyBag bag;
  std::multiset<Key> ref;
  for (int step = 0; step < 20000; ++step) {
    switch (rng.NextBelow(5)) {
      case 0: {  // insert (small domain => duplicates are common)
        Key k = rng.UniformInt(-50, 200);
        bag.Insert(k);
        ref.insert(k);
        break;
      }
      case 1: {  // erase one occurrence
        Key k = rng.UniformInt(-50, 200);
        bool erased = bag.Erase(k);
        auto it = ref.find(k);
        ASSERT_EQ(erased, it != ref.end());
        if (it != ref.end()) ref.erase(it);
        break;
      }
      case 2: {  // extract strictly-below pivot
        Key pivot = rng.UniformInt(-60, 210);
        KeyBag out = bag.ExtractBelow(pivot);
        std::multiset<Key> ref_out(ref.begin(), ref.lower_bound(pivot));
        ref.erase(ref.begin(), ref.lower_bound(pivot));
        ASSERT_EQ(out.SortedKeys(), Sorted(ref_out)) << "step " << step;
        break;
      }
      case 3: {  // extract at-least pivot
        Key pivot = rng.UniformInt(-60, 210);
        KeyBag out = bag.ExtractAtLeast(pivot);
        std::multiset<Key> ref_out(ref.lower_bound(pivot), ref.end());
        ref.erase(ref.lower_bound(pivot), ref.end());
        ASSERT_EQ(out.SortedKeys(), Sorted(ref_out)) << "step " << step;
        break;
      }
      default: {  // absorb a freshly built bag (sometimes empty)
        KeyBag other;
        size_t extra = rng.NextBelow(40);
        for (size_t i = 0; i < extra; ++i) {
          Key k = rng.UniformInt(-50, 200);
          other.Insert(k);
          ref.insert(k);
        }
        bag.Absorb(&other);
        ASSERT_EQ(other.size(), 0u) << "absorb must drain the source";
        break;
      }
    }
    ASSERT_EQ(bag.size(), ref.size()) << "step " << step;
  }
  EXPECT_EQ(bag.SortedKeys(), Sorted(ref));
}

TEST(KeyBag, ExtractFromEmptyBag) {
  KeyBag bag;
  EXPECT_EQ(bag.ExtractBelow(10).size(), 0u);
  EXPECT_EQ(bag.ExtractAtLeast(10).size(), 0u);
  EXPECT_TRUE(bag.empty());
}

TEST(KeyBag, ExtractPivotOutsideRange) {
  // Pivot below every key: ExtractBelow takes nothing, ExtractAtLeast all.
  KeyBag bag;
  for (Key k : {10, 20, 30}) bag.Insert(k);
  EXPECT_EQ(bag.ExtractBelow(5).size(), 0u);
  EXPECT_EQ(bag.size(), 3u);
  KeyBag all = bag.ExtractAtLeast(5);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(bag.empty());

  // Pivot above every key: the mirror image.
  for (Key k : {10, 20, 30}) bag.Insert(k);
  EXPECT_EQ(bag.ExtractAtLeast(100).size(), 0u);
  EXPECT_EQ(bag.size(), 3u);
  KeyBag below = bag.ExtractBelow(100);
  EXPECT_EQ(below.size(), 3u);
  EXPECT_TRUE(bag.empty());
}

TEST(KeyBag, AbsorbIntoEmptyAndFromEmpty) {
  KeyBag a, b;
  b.Insert(3);
  b.Insert(1);
  a.Absorb(&b);  // empty destination takes the source wholesale
  EXPECT_EQ(a.SortedKeys(), (std::vector<Key>{1, 3}));
  EXPECT_TRUE(b.empty());
  a.Absorb(&b);  // absorbing an empty bag is a no-op
  EXPECT_EQ(a.size(), 2u);
}

}  // namespace
}  // namespace baton
