// Unit tests for tree positions and routing-table slot arithmetic.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baton/node.h"
#include "baton/position.h"

namespace baton {
namespace {

TEST(Position, RootProperties) {
  Position r = Position::Root();
  EXPECT_TRUE(r.IsRoot());
  EXPECT_EQ(r.level, 0u);
  EXPECT_EQ(r.number, 1u);
  EXPECT_EQ(r.LevelWidth(), 1u);
}

TEST(Position, ChildParentRoundTrip) {
  Position p{5, 17};
  EXPECT_EQ(p.LeftChild().Parent(), p);
  EXPECT_EQ(p.RightChild().Parent(), p);
}

TEST(Position, ChildNumbers) {
  Position p{3, 5};
  EXPECT_EQ(p.LeftChild().level, 4u);
  EXPECT_EQ(p.LeftChild().number, 9u);
  EXPECT_EQ(p.RightChild().number, 10u);
  EXPECT_TRUE(p.LeftChild().IsLeftChild());
  EXPECT_FALSE(p.RightChild().IsLeftChild());
}

TEST(Position, InOrderKeyMatchesTraversal) {
  // Build the full tree of depth 4 and check that sorting by InOrderKey
  // reproduces a recursive in-order traversal.
  std::vector<Position> in_order;
  std::function<void(Position, int)> walk = [&](Position p, int depth) {
    if (depth > 0) walk(p.LeftChild(), depth - 1);
    in_order.push_back(p);
    if (depth > 0) walk(p.RightChild(), depth - 1);
  };
  walk(Position::Root(), 4);
  for (size_t i = 0; i + 1 < in_order.size(); ++i) {
    EXPECT_LT(in_order[i].InOrderKey(), in_order[i + 1].InOrderKey())
        << in_order[i] << " vs " << in_order[i + 1];
    EXPECT_TRUE(InOrderBefore(in_order[i], in_order[i + 1]));
  }
}

TEST(Position, InOrderKeyUniqueAcrossLevels) {
  std::vector<uint64_t> keys;
  for (uint32_t level = 0; level <= 10; ++level) {
    for (uint64_t num = 1; num <= (uint64_t{1} << level); ++num) {
      keys.push_back(Position{level, num}.InOrderKey());
    }
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(Position, DeepLevelsDoNotOverflow) {
  Position deep{40, (uint64_t{1} << 40)};
  EXPECT_GT(deep.InOrderKey(), 0u);
  EXPECT_EQ(deep.Parent().level, 39u);
}

// ---------- RoutingTable slot math ----------

TEST(RoutingTable, NumSlotsLeftEdge) {
  // Leftmost node of a level has no left slots.
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 1}, true), 0);
  // and the full set of right slots: 1+1, 1+2, 1+4, 1+8, 1+16 <= 32.
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 1}, false), 5);
}

TEST(RoutingTable, NumSlotsRightEdge) {
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 32}, false), 0);
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 32}, true), 5);
}

TEST(RoutingTable, NumSlotsMiddle) {
  // number 12 at level 5: left reaches 12-1,12-2,12-4,12-8 (>=1): 4 slots;
  // right reaches 12+1,...,12+16 <= 32: 5 slots.
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 12}, true), 4);
  EXPECT_EQ(RoutingTable::NumSlots(Position{5, 12}, false), 5);
}

TEST(RoutingTable, SlotPositionsArePowersOfTwoAway) {
  Position p{6, 30};
  for (bool left : {true, false}) {
    int slots = RoutingTable::NumSlots(p, left);
    for (int i = 0; i < slots; ++i) {
      Position q = RoutingTable::SlotPosition(p, left, i);
      EXPECT_EQ(q.level, p.level);
      uint64_t d = q.number > p.number ? q.number - p.number
                                       : p.number - q.number;
      EXPECT_EQ(d, uint64_t{1} << i);
    }
  }
}

TEST(RoutingTable, SlotForDistance) {
  EXPECT_EQ(RoutingTable::SlotForDistance(1), 0);
  EXPECT_EQ(RoutingTable::SlotForDistance(2), 1);
  EXPECT_EQ(RoutingTable::SlotForDistance(8), 3);
  EXPECT_EQ(RoutingTable::SlotForDistance(3), -1);
  EXPECT_EQ(RoutingTable::SlotForDistance(0), -1);
}

TEST(RoutingTable, ResetDimensionsAndEmptiness) {
  const Position pos{4, 7};
  RoutingRows rows(pos.level);
  uint32_t row = rows.Acquire(/*owner=*/0);
  int size = RoutingTable::NumSlots(pos, /*left=*/true);
  EXPECT_EQ(size, 3);  // 7-1, 7-2, 7-4
  EXPECT_LE(size, static_cast<int>(pos.level));  // fits the row's left half
  // Empty slots still count as a table that is NOT full (positions exist).
  EXPECT_FALSE(rows.IsFull(row, /*left=*/true, size));
  NodeRef filled;
  filled.peer = 1;
  for (int i = 0; i < size; ++i) {
    rows.Set(row, /*left=*/true, i, filled, /*peer_row=*/0);
  }
  EXPECT_TRUE(rows.IsFull(row, /*left=*/true, size));
  // A reset (a move within the level) nulls the row again.
  rows.Clear(row);
  EXPECT_FALSE(rows.IsFull(row, /*left=*/true, size));
}

TEST(RoutingTable, ZeroSlotTableIsVacuouslyFull) {
  RoutingRows rows(Position::Root().level);
  uint32_t row = rows.Acquire(/*owner=*/0);
  EXPECT_EQ(RoutingTable::NumSlots(Position::Root(), true), 0);
  EXPECT_TRUE(rows.IsFull(row, /*left=*/true, 0));
}

TEST(RoutingTable, EntriesKeepBothBoundsAndChildBitsPerSide) {
  RoutingRows rows(5);
  uint32_t row = rows.Acquire(/*owner=*/3);
  NodeRef e;
  e.peer = 9;
  e.range = Range{100, 200};
  e.has_right = true;
  rows.Set(row, /*left=*/false, 4, e, /*peer_row=*/11);
  // A right-table entry's hot bound is its range.lo; the hot part also
  // keeps the peer's row as a prefetch hint.
  EXPECT_EQ(rows.hot(row, /*left=*/false)[4].bound, 100);
  EXPECT_EQ(rows.hot(row, /*left=*/false)[4].row, 11u);
  NodeRef back = rows.Get(row, /*left=*/false, 4);
  EXPECT_EQ(back.peer, 9u);
  EXPECT_EQ(back.range, (Range{100, 200}));
  EXPECT_FALSE(back.has_left);
  EXPECT_TRUE(back.has_right);
  // The left half of the row is untouched.
  EXPECT_FALSE(rows.Get(row, /*left=*/true, 4).valid());
  rows.Set(row, /*left=*/true, 0, e, /*peer_row=*/11);
  EXPECT_EQ(rows.hot(row, /*left=*/true)[0].bound, 200);  // range.hi
  EXPECT_EQ(rows.Get(row, /*left=*/true, 0).range, (Range{100, 200}));
}

TEST(RoutingTable, ReleasedRowsAreReusedNulled) {
  RoutingRows rows(3);
  uint32_t a = rows.Acquire(/*owner=*/1);
  uint32_t b = rows.Acquire(/*owner=*/2);
  EXPECT_NE(a, b);
  EXPECT_EQ(rows.in_use(), 2u);
  NodeRef e;
  e.peer = 7;
  rows.Set(a, /*left=*/true, 2, e, /*peer_row=*/0);
  rows.Transfer(a, /*owner=*/5);  // a handover keeps the entries
  EXPECT_EQ(rows.owner(a), 5u);
  EXPECT_EQ(rows.Get(a, /*left=*/true, 2).peer, 7u);
  rows.Release(a);
  EXPECT_EQ(rows.owner(a), kNullPeer);
  EXPECT_EQ(rows.in_use(), 1u);
  EXPECT_EQ(rows.Acquire(/*owner=*/6), a);  // reused before the slab grows
  EXPECT_FALSE(rows.Get(a, /*left=*/true, 2).valid());
  EXPECT_EQ(rows.in_use(), 2u);
}

// ---------- Range ----------

TEST(Range, ContainsAndIntersects) {
  Range r{10, 20};
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_TRUE(r.Intersects(19, 25));
  EXPECT_FALSE(r.Intersects(20, 25));
  EXPECT_TRUE(r.Intersects(0, 11));
  EXPECT_FALSE(r.Intersects(0, 10));
}

TEST(Range, WidthAndMid) {
  Range r{10, 20};
  EXPECT_EQ(r.Width(), 10);
  EXPECT_EQ(r.Mid(), 15);
  EXPECT_FALSE(r.Empty());
  EXPECT_TRUE((Range{5, 5}).Empty());
}

}  // namespace
}  // namespace baton
