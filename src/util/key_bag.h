// Per-node key storage: a sorted vector plus an unsorted insert buffer that
// is merged into it lazily, giving the order statistics load balancing needs
// (medians, range counts, prefix extraction) without per-key allocation.
//
// A bag can be far heavier than total/N: with load balancing off, the join
// walk keeps splitting the same region, and in a joins-only 65,536-node
// overlay one node owns a quarter of the key domain. So a merge waits for a
// buffer in proportion to the bag: Insert merges when the buffer reaches
// max(64, sorted run / 8), and a bag of n keys merges O(log n) times while
// it grows, copying each key a constant number of times amortized. Contains
// and Erase merge first once the buffer holds more than 64 keys, so a
// membership read scans at most 64 unsorted keys; the order reads (Min,
// Max, Median, Kth, CountInRange, Extract*, Absorb, SortedKeys) merge first
// whatever the buffer's size.
#ifndef BATON_UTIL_KEY_BAG_H_
#define BATON_UTIL_KEY_BAG_H_

#include <cstddef>
#include <vector>

#include "util/keys.h"

namespace baton {

class KeyBag {
 public:
  void Insert(Key k);
  /// Removes one occurrence; returns false if absent.
  bool Erase(Key k);
  bool Contains(Key k) const;
  size_t size() const { return sorted_.size() + pending_.size(); }
  bool empty() const { return size() == 0; }

  Key Min() const;
  Key Max() const;
  /// Median key (upper median); requires non-empty.
  Key Median() const;
  /// i-th smallest key, 0-based; requires i < size().
  Key Kth(size_t i) const;
  /// Number of keys in [lo, hi).
  size_t CountInRange(Key lo, Key hi) const;

  /// Removes and returns all keys < pivot.
  KeyBag ExtractBelow(Key pivot);
  /// Removes and returns all keys >= pivot.
  KeyBag ExtractAtLeast(Key pivot);

  /// Moves all keys from `other` into this bag (other becomes empty).
  void Absorb(KeyBag* other);

  /// All keys in sorted order (forces a merge); for tests and scans.
  const std::vector<Key>& SortedKeys() const;

 private:
  void Flush() const;  // merges pending_ into sorted_
  /// Splits a flushed bag at index `count`/`from`; the side that stays is
  /// the only one copied (see key_bag.cc for the asymmetry).
  KeyBag ExtractPrefix(size_t count);
  KeyBag ExtractSuffix(size_t from);

  // Lazily merged; mutable so const readers can flush.
  mutable std::vector<Key> sorted_;
  mutable std::vector<Key> pending_;

  /// The shortest buffer an insert or membership read merges, and the
  /// longest one a membership read scans.
  static constexpr size_t kMinMergeRun = 64;
  /// Insert's buffer may grow to sorted_.size() / kMergeDivisor.
  static constexpr size_t kMergeDivisor = 8;
};

}  // namespace baton

#endif  // BATON_UTIL_KEY_BAG_H_
