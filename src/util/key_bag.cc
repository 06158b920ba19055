#include "util/key_bag.h"

#include <algorithm>

#include "util/check.h"

namespace baton {

void KeyBag::Flush() const {
  if (pending_.empty()) return;
  std::sort(pending_.begin(), pending_.end());
  std::vector<Key> merged;
  merged.reserve(sorted_.size() + pending_.size());
  std::merge(sorted_.begin(), sorted_.end(), pending_.begin(), pending_.end(),
             std::back_inserter(merged));
  sorted_ = std::move(merged);
  pending_.clear();
}

void KeyBag::Insert(Key k) {
  pending_.push_back(k);
  if (pending_.size() >=
      std::max(kMinMergeRun, sorted_.size() / kMergeDivisor)) {
    Flush();
  }
}

bool KeyBag::Erase(Key k) {
  if (pending_.size() > kMinMergeRun) Flush();
  auto pit = std::find(pending_.begin(), pending_.end(), k);
  if (pit != pending_.end()) {
    pending_.erase(pit);
    return true;
  }
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), k);
  if (it != sorted_.end() && *it == k) {
    sorted_.erase(it);
    return true;
  }
  return false;
}

bool KeyBag::Contains(Key k) const {
  if (pending_.size() > kMinMergeRun) Flush();
  if (std::find(pending_.begin(), pending_.end(), k) != pending_.end()) {
    return true;
  }
  return std::binary_search(sorted_.begin(), sorted_.end(), k);
}

Key KeyBag::Min() const {
  BATON_CHECK(!empty());
  Flush();
  return sorted_.front();
}

Key KeyBag::Max() const {
  BATON_CHECK(!empty());
  Flush();
  return sorted_.back();
}

Key KeyBag::Median() const {
  BATON_CHECK(!empty());
  Flush();
  return sorted_[sorted_.size() / 2];
}

Key KeyBag::Kth(size_t i) const {
  BATON_CHECK_LT(i, size());
  Flush();
  return sorted_[i];
}

size_t KeyBag::CountInRange(Key lo, Key hi) const {
  Flush();
  auto first = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  auto last = std::lower_bound(sorted_.begin(), sorted_.end(), hi);
  return static_cast<size_t>(last - first);
}

KeyBag KeyBag::ExtractPrefix(size_t count) {
  // Hand the whole vector to the extracted bag and keep a copy of the
  // suffix: one copy of the surviving side, instead of copying the prefix
  // AND shifting the suffix down (erase) as the naive split would.
  KeyBag out;
  if (count == 0) return out;  // keep the empty split an O(1) no-op
  out.sorted_ = std::move(sorted_);
  sorted_.assign(out.sorted_.begin() + static_cast<ptrdiff_t>(count),
                 out.sorted_.end());
  out.sorted_.resize(count);
  return out;
}

KeyBag KeyBag::ExtractSuffix(size_t from) {
  // The suffix moves out, the prefix stays in place: no element shifts.
  KeyBag out;
  if (from == sorted_.size()) return out;  // empty split: O(1) no-op
  out.sorted_.assign(sorted_.begin() + static_cast<ptrdiff_t>(from),
                     sorted_.end());
  sorted_.resize(from);
  return out;
}

KeyBag KeyBag::ExtractBelow(Key pivot) {
  Flush();
  auto split = std::lower_bound(sorted_.begin(), sorted_.end(), pivot);
  return ExtractPrefix(static_cast<size_t>(split - sorted_.begin()));
}

KeyBag KeyBag::ExtractAtLeast(Key pivot) {
  Flush();
  auto split = std::lower_bound(sorted_.begin(), sorted_.end(), pivot);
  return ExtractSuffix(static_cast<size_t>(split - sorted_.begin()));
}

void KeyBag::Absorb(KeyBag* other) {
  // Both sides are sorted after their flushes: merge directly instead of
  // dumping `other` into pending_ and re-sorting keys that were already in
  // order (the old path sorted the absorbed keys twice).
  BATON_CHECK(other != this) << "a bag cannot absorb itself";
  Flush();
  other->Flush();
  if (other->sorted_.empty()) return;
  if (sorted_.empty()) {
    sorted_ = std::move(other->sorted_);
  } else {
    std::vector<Key> merged;
    merged.reserve(sorted_.size() + other->sorted_.size());
    std::merge(sorted_.begin(), sorted_.end(), other->sorted_.begin(),
               other->sorted_.end(), std::back_inserter(merged));
    sorted_ = std::move(merged);
  }
  other->sorted_.clear();
}

const std::vector<Key>& KeyBag::SortedKeys() const {
  Flush();
  return sorted_;
}

}  // namespace baton
