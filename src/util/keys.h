// Index value types shared by every overlay: keys and half-open key ranges.
#ifndef BATON_UTIL_KEYS_H_
#define BATON_UTIL_KEYS_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "util/check.h"

namespace baton {

/// Index keys. The paper's experiments use values in [1, 10^9).
using Key = int64_t;

/// Half-open range [lo, hi) of index values managed by one node.
struct Range {
  Key lo = 0;
  Key hi = 0;

  bool Contains(Key k) const { return lo <= k && k < hi; }
  bool Intersects(Key qlo, Key qhi) const { return lo < qhi && qlo < hi; }
  Key Width() const { return hi - lo; }
  bool Empty() const { return hi <= lo; }
  /// Value-space midpoint (used when a node has too little data to split by
  /// content median).
  Key Mid() const { return lo + (hi - lo) / 2; }

  bool operator==(const Range& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const Range& o) const { return !(*this == o); }

  std::string ToString() const {
    return "[" + std::to_string(lo) + "," + std::to_string(hi) + ")";
  }
};

inline std::ostream& operator<<(std::ostream& os, const Range& r) {
  return os << r.ToString();
}

}  // namespace baton

#endif  // BATON_UTIL_KEYS_H_
