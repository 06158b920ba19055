// Cache-friendly open-addressing hash containers for the simulator hot
// paths.
//
// FlatMap64<V> maps uint64_t keys to values; FlatSet64 is the mapless
// variant. Both use linear probing over a power-of-two slot array with a
// separate one-byte control array (empty / full / tombstone), so a probe
// touches a contiguous byte run instead of chasing unordered_map's
// per-node allocations. The position directory probe sits inside every
// routing hop and restructure step, which is what makes this worth having;
// chord's id-collision set, the join/restructure scratch sets and the
// replication directories reuse it.
//
// Deliberate limitations (hot-path trade-offs, asserted where cheap):
//  * keys are uint64_t; hash is Mix64 (already an avalanche finalizer, so
//    no secondary hashing is needed even for dense key patterns),
//  * no iterator stability across mutation; ForEach is the only traversal
//    and must not mutate the container,
//  * erase uses tombstones; slots are reclaimed on the next rehash.
//    Rehashing triggers when full+tombstone slots exceed 7/8 of capacity,
//    so a long erase/insert workload cannot degrade probing unboundedly.
#ifndef BATON_UTIL_FLAT_MAP_H_
#define BATON_UTIL_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace baton {
namespace util {

/// Stand-alone copy of the SplitMix64 finalizer (kept here so the header is
/// self-contained for templates; identical to baton::Mix64).
inline uint64_t FlatHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Value>
class FlatMap64 {
 public:
  FlatMap64() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the table for `n` live entries without rehash churn.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;  // target load factor <= 0.75
    if (cap > Capacity()) Rehash(cap);
  }

  /// Inserts key -> value. Returns false (and leaves the existing mapping
  /// untouched) when the key is already present.
  bool Insert(uint64_t key, Value value) {
    size_t idx;
    if (FindSlot(key, &idx)) return false;  // probe first: a duplicate
    idx = EnsureInsertSlot(key, idx);       // insert must never rehash
    if (ctrl_[idx] == kTombstone) --tombstones_;
    ctrl_[idx] = kFull;
    keys_[idx] = key;
    values_[idx] = std::move(value);
    ++size_;
    return true;
  }

  /// Pointer to the value mapped at `key`, or nullptr.
  Value* Find(uint64_t key) {
    size_t idx;
    return FindSlot(key, &idx) ? &values_[idx] : nullptr;
  }
  const Value* Find(uint64_t key) const {
    size_t idx;
    return FindSlot(key, &idx) ? &values_[idx] : nullptr;
  }
  bool Contains(uint64_t key) const {
    size_t idx;
    return FindSlot(key, &idx);
  }

  /// Value mapped at `key`, inserting a default-constructed one if absent.
  Value& GetOrInsert(uint64_t key) {
    size_t idx;
    if (!FindSlot(key, &idx)) {
      idx = EnsureInsertSlot(key, idx);
      if (ctrl_[idx] == kTombstone) --tombstones_;
      ctrl_[idx] = kFull;
      keys_[idx] = key;
      values_[idx] = Value{};
      ++size_;
    }
    return values_[idx];
  }

  /// Removes the mapping; returns false if absent. The slot becomes a
  /// tombstone (reclaimed on the next rehash).
  bool Erase(uint64_t key) {
    size_t idx;
    if (!FindSlot(key, &idx)) return false;
    ctrl_[idx] = kTombstone;
    values_[idx] = Value{};  // drop payload eagerly (bags, vectors)
    ++tombstones_;
    --size_;
    return true;
  }

  /// Removes every entry but keeps the slot arrays, so a scratch container
  /// refilled to a similar size does not allocate again.
  void Clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    for (Value& v : values_) v = Value{};  // drop payloads, as Erase does
    size_ = 0;
    tombstones_ = 0;
  }

  /// Calls fn(key, value&) for every live entry, in unspecified order. The
  /// callback must not mutate the container.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) fn(keys_[i], values_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull) fn(keys_[i], const_cast<const Value&>(values_[i]));
    }
  }

  /// Slots currently marked as tombstones (exposed for tests).
  size_t TombstoneCount() const { return tombstones_; }
  size_t Capacity() const { return ctrl_.size(); }

 private:
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 1;
  static constexpr uint8_t kTombstone = 2;
  static constexpr size_t kMinCapacity = 16;

  /// Finds `key`'s slot. Returns true when the key is present (idx = its
  /// slot); false when absent (idx = the insertion slot: the first tombstone
  /// seen on the probe path, else the terminating empty slot).
  bool FindSlot(uint64_t key, size_t* idx) const {
    if (ctrl_.empty()) {
      *idx = 0;
      return false;
    }
    size_t mask = ctrl_.size() - 1;
    size_t i = FlatHash64(key) & mask;
    size_t insert = SIZE_MAX;
    while (true) {
      uint8_t c = ctrl_[i];
      if (c == kFull && keys_[i] == key) {
        *idx = i;
        return true;
      }
      if (c == kEmpty) {
        *idx = insert != SIZE_MAX ? insert : i;
        return false;
      }
      if (c == kTombstone && insert == SIZE_MAX) insert = i;
      i = (i + 1) & mask;
    }
  }

  /// Called with the insertion slot a failed FindSlot produced, for a key
  /// about to be inserted (lookups of present keys never reach this, so a
  /// hit can never trigger a rehash). Grows/reclaims if the new entry would
  /// push occupancy past the threshold and returns the (possibly re-probed)
  /// slot to write into.
  size_t EnsureInsertSlot(uint64_t key, size_t idx) {
    if (ctrl_.empty()) {
      Rehash(kMinCapacity);
    } else {
      // Rehash when live + tombstone slots would pass 7/8 of capacity: to a
      // larger table when the live load alone passes 3/4, else in place
      // (same capacity) purely to reclaim tombstones.
      size_t cap = ctrl_.size();
      if ((size_ + tombstones_ + 1) * 8 > cap * 7) {
        Rehash((size_ + 1) * 4 > cap * 3 ? cap * 2 : cap);
      } else {
        return idx;  // table unchanged; the probed slot is still right
      }
    }
    bool found = FindSlot(key, &idx);
    BATON_CHECK(!found);
    return idx;
  }

  void Rehash(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    ctrl_.assign(new_cap, kEmpty);
    keys_.assign(new_cap, 0);
    values_.clear();
    values_.resize(new_cap);
    tombstones_ = 0;
    size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      size_t j = FlatHash64(old_keys[i]) & mask;
      while (ctrl_[j] == kFull) j = (j + 1) & mask;
      ctrl_[j] = kFull;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<uint64_t> keys_;
  std::vector<Value> values_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

/// Set of uint64_t keys with the same probing scheme (no per-slot payload).
class FlatSet64 {
 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Reserve(size_t n) { map_.Reserve(n); }
  /// Returns true when the key was newly inserted.
  bool Insert(uint64_t key) { return map_.Insert(key, Unit{}); }
  bool Contains(uint64_t key) const { return map_.Contains(key); }
  bool Erase(uint64_t key) { return map_.Erase(key); }
  void Clear() { map_.Clear(); }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](uint64_t key, const Unit&) { fn(key); });
  }

 private:
  struct Unit {};
  FlatMap64<Unit> map_;
};

}  // namespace util
}  // namespace baton

#endif  // BATON_UTIL_FLAT_MAP_H_
