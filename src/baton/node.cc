#include "baton/node.h"

namespace baton {

namespace {

/// Bits needed to write x: 0 for 0, else floor(log2 x) + 1.
int BitWidth(uint64_t x) { return x == 0 ? 0 : 64 - __builtin_clzll(x); }

}  // namespace

int RoutingTable::NumSlots(const Position& pos, bool left) {
  // Left: slots while number - 2^i >= 1, i.e. 2^i <= number - 1.
  // Right: slots while number + 2^i <= 2^level.
  return BitWidth(left ? pos.number - 1 : pos.LevelWidth() - pos.number);
}

Position RoutingTable::SlotPosition(const Position& pos, bool left, int i) {
  uint64_t d = uint64_t{1} << i;
  if (left) {
    BATON_CHECK_GT(pos.number, d);
    return Position{pos.level, pos.number - d};
  }
  BATON_CHECK_LE(pos.number + d, pos.LevelWidth());
  return Position{pos.level, pos.number + d};
}

int RoutingTable::SlotForDistance(uint64_t d) {
  if (d == 0 || (d & (d - 1)) != 0) return -1;
  return __builtin_ctzll(d);
}

uint32_t RoutingRows::Acquire(PeerId owner) {
  uint32_t row;
  if (free_.empty()) {
    row = static_cast<uint32_t>(owners_.size());
    BATON_CHECK_LT(row, kNoRow);
    owners_.push_back(owner);
    hot_.resize(hot_.size() + 2 * size_t{level_});
    cold_.resize(cold_.size() + 2 * size_t{level_});
  } else {
    row = free_.back();
    free_.pop_back();
    owners_[row] = owner;
    Clear(row);
  }
  return row;
}

void RoutingRows::Release(uint32_t row) {
  BATON_CHECK_NE(owner(row), kNullPeer) << "row " << row << " is not in use";
  owners_[row] = kNullPeer;
  free_.push_back(row);
}

void RoutingRows::Transfer(uint32_t row, PeerId owner) {
  BATON_CHECK_NE(this->owner(row), kNullPeer) << "row " << row << " is free";
  owners_[row] = owner;
}

void RoutingRows::Clear(uint32_t row) {
  size_t start = Start(row, /*left=*/true);
  for (size_t i = start; i < start + 2 * size_t{level_}; ++i) {
    hot_[i] = RouteHot{};
    cold_[i] = RouteCold{};
  }
}

NodeRef RoutingRows::Get(uint32_t row, bool left, int i) const {
  size_t at = Start(row, left) + static_cast<size_t>(i);
  const RouteHot& h = hot_[at];
  if (h.peer == kNullPeer) return NodeRef{};
  const RouteCold& c = cold_[at];
  NodeRef ref;
  ref.peer = h.peer;
  ref.has_left = c.has_left;
  ref.has_right = c.has_right;
  ref.range = left ? Range{c.other, h.bound} : Range{h.bound, c.other};
  return ref;
}

void RoutingRows::Set(uint32_t row, bool left, int i, const NodeRef& ref,
                      uint32_t peer_row) {
  size_t at = Start(row, left) + static_cast<size_t>(i);
  if (!ref.valid()) {
    hot_[at] = RouteHot{};
    cold_[at] = RouteCold{};
    return;
  }
  hot_[at] = RouteHot{left ? ref.range.hi : ref.range.lo, ref.peer, peer_row};
  cold_[at] = RouteCold{left ? ref.range.lo : ref.range.hi, ref.has_left,
                        ref.has_right};
}

bool RoutingRows::IsFull(uint32_t row, bool left, int size) const {
  const RouteHot* e = hot(row, left);
  for (int i = 0; i < size; ++i) {
    if (e[i].peer == kNullPeer) return false;
  }
  return true;
}

}  // namespace baton
