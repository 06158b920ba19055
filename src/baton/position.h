// Logical tree positions.
//
// "We associate with each node in the tree a level and a number. The level of
// the root is 0 ... At each level L, nodes are numbered from 1 to 2^L."
// (level, number) fully determines a slot in the infinite binary tree; the
// in-order traversal order of slots gives the key-space ordering.
#ifndef BATON_BATON_POSITION_H_
#define BATON_BATON_POSITION_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "util/check.h"

namespace baton {

struct Position {
  // Levels are bounded by kMaxLevel so in-order keys fit in 64 bits. A
  // balanced tree of 2^48 nodes is far beyond any simulation size.
  static constexpr uint32_t kMaxLevel = 48;

  uint32_t level = 0;
  uint64_t number = 1;  // 1-based within the level, in [1, 2^level]

  static Position Root() { return Position{0, 1}; }

  bool IsRoot() const { return level == 0; }
  /// True if this slot is the left child of its parent (odd number).
  bool IsLeftChild() const { return (number & 1) == 1; }

  Position Parent() const {
    BATON_CHECK(!IsRoot());
    return Position{level - 1, (number + 1) / 2};
  }
  Position LeftChild() const {
    BATON_CHECK_LT(level, kMaxLevel);
    return Position{level + 1, 2 * number - 1};
  }
  Position RightChild() const {
    BATON_CHECK_LT(level, kMaxLevel);
    return Position{level + 1, 2 * number};
  }

  /// Number of slots on the level: numbers range over [1, 2^level].
  uint64_t LevelWidth() const { return uint64_t{1} << level; }

  /// Key that orders slots by in-order traversal: slot (l, n) sits at the
  /// centre (2n-1)/2^(l+1) of its dyadic interval; scaling by 2^kMaxLevel+1
  /// gives an exact integer comparison key.
  uint64_t InOrderKey() const {
    BATON_CHECK_LE(level, kMaxLevel);
    return (2 * number - 1) << (kMaxLevel - level);
  }

  bool operator==(const Position& o) const {
    return level == o.level && number == o.number;
  }
  bool operator!=(const Position& o) const { return !(*this == o); }

  std::string ToString() const {
    return "(" + std::to_string(level) + "," + std::to_string(number) + ")";
  }
};

inline std::ostream& operator<<(std::ostream& os, const Position& p) {
  return os << p.ToString();
}

/// True if `a` precedes `b` in the in-order traversal of the infinite tree.
inline bool InOrderBefore(const Position& a, const Position& b) {
  return a.InOrderKey() < b.InOrderKey();
}

}  // namespace baton

#endif  // BATON_BATON_POSITION_H_
