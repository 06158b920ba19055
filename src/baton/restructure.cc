// Network restructuring (section III-E), "akin to a rotation in an AVL tree".
//
// Forced join: the new node is spliced into the in-order sequence next to the
// overloaded node and occupants shift along adjacent links, each taking the
// next occupied position, until one can drop into a child slot whose creation
// keeps the tree balanced (Theorem 1's local check: the would-be parent's
// routing tables are full). This reproduces the paper's Fig. 4 chain
// (l->h->d->i->b->j->e->k->a->f.left) and, because a freshly vacated slot is
// just an empty child slot on the walk, the unified load-balancing chain of
// Fig. 7.
//
// Vacancy fill (after a forced departure): occupants shift toward the hole
// until the slot vacated last is a safely removable leaf, reproducing Fig. 5
// (c->g, f->c, a->f, k->a).
//
// Nodes carry their ranges and data with them, so no data moves; in-order
// node order -- and hence the range partitioning -- is preserved. Each mover
// pays O(log N) messages to rebuild its routing tables and notify the links
// caching its old coordinates.
#include <algorithm>

#include "baton/baton_network.h"

namespace baton {

int BatonNetwork::ForcedJoin(BatonNode* x, BatonNode* y, bool splice_before,
                             bool prefer_right) {
  BATON_CHECK(!defer_updates_)
      << "restructuring requires immediate link updates";
  y->in_overlay = true;
  SplitContent(x, y, /*as_left=*/splice_before);
  SpliceIntoAdjacency(y, x, /*before=*/splice_before);

  // Both directions are locally discoverable; shift the shorter chain.
  std::vector<Move> preferred, other;
  bool ok_pref = TryBuildJoinChain(y, prefer_right, &preferred);
  bool ok_other = TryBuildJoinChain(y, !prefer_right, &other);
  BATON_CHECK(ok_pref || ok_other)
      << "restructuring could not absorb the forced join";
  std::vector<Move>& moves =
      !ok_other || (ok_pref && preferred.size() <= other.size()) ? preferred
                                                                 : other;
  RelocateNodes(moves);
  // x's range was halved by the split; when the chain was absorbed away from
  // x, nobody above has refreshed the links caching x yet.
  RefreshInboundRefs(x, net::MsgType::kRangeUpdate);
  return static_cast<int>(moves.size());
}

bool BatonNetwork::TryBuildJoinChain(BatonNode* y, bool rightward,
                                     std::vector<Move>* moves) {
  moves->clear();
  BatonNode* mover = y;
  bool mover_has_old = false;
  Position mover_old;
  BatonNode* t = rightward ? NodeOrNull(y->right_adj) : NodeOrNull(y->left_adj);
  int guard = static_cast<int>(size()) + 8;
  while (true) {
    BATON_CHECK_GE(--guard, 0) << "join chain exceeded overlay size";
    // (a) The displaced mover can drop into the near child slot of its own
    //     old position (now held by the previous mover): the slot sits
    //     in-order between the old position and its successor, and the old
    //     position's tables being full makes the addition balance-safe.
    if (mover_has_old) {
      if (rightward ? (!mover->right_child.valid() && TablesFull(mover))
                    : (!mover->left_child.valid() && TablesFull(mover))) {
        moves->push_back(Move{mover, rightward ? mover_old.RightChild()
                                               : mover_old.LeftChild()});
        return true;
      }
    }
    if (t == nullptr) return false;  // ran off the end of the level chain
    // (b) The next occupant can absorb the mover as its near-side child
    //     ("z then checks its right adjacent node t to see if its left child
    //      is empty ... and adding a child to t does not affect the balance").
    if (rightward ? (!t->left_child.valid() && TablesFull(t))
                  : (!t->right_child.valid() && TablesFull(t))) {
      moves->push_back(Move{mover, rightward ? t->pos.LeftChild()
                                             : t->pos.RightChild()});
      return true;
    }
    // (c) Otherwise the mover takes t's position and t is displaced.
    moves->push_back(Move{mover, t->pos});
    mover = t;
    mover_has_old = true;
    mover_old = t->pos;
    t = rightward ? NodeOrNull(t->right_adj) : NodeOrNull(t->left_adj);
  }
}

int BatonNetwork::FillVacancy(const Position& vacated, BatonNode* pred_hint,
                              BatonNode* succ_hint, bool prefer_left) {
  BATON_CHECK(!defer_updates_)
      << "restructuring requires immediate link updates";
  BatonNode* first = prefer_left ? pred_hint : succ_hint;
  BatonNode* second = prefer_left ? succ_hint : pred_hint;
  std::vector<Move> preferred, other;
  bool ok_pref = TryBuildVacancyChain(vacated, first, prefer_left, &preferred);
  bool ok_other = TryBuildVacancyChain(vacated, second, !prefer_left, &other);
  BATON_CHECK(ok_pref || ok_other)
      << "no safely removable leaf found to absorb the vacancy";
  std::vector<Move>& moves =
      !ok_other || (ok_pref && preferred.size() <= other.size()) ? preferred
                                                                 : other;
  RelocateNodes(moves);
  return static_cast<int>(moves.size());
}

bool BatonNetwork::TryBuildVacancyChain(const Position& vacated,
                                        BatonNode* start, bool leftward,
                                        std::vector<Move>* moves) {
  moves->clear();
  if (start == nullptr) return false;
  Position hole = vacated;
  BatonNode* cur = start;
  int guard = static_cast<int>(size()) + 8;
  while (true) {
    BATON_CHECK_GE(--guard, 0) << "vacancy chain exceeded overlay size";
    moves->push_back(Move{cur, hole});
    // Stop once the slot this mover vacates can be removed without breaking
    // balance (a deepest-level leaf always qualifies, so one direction must
    // eventually succeed).
    if (SafeToRemove(cur)) return true;
    hole = cur->pos;
    BatonNode* next =
        leftward ? NodeOrNull(cur->left_adj) : NodeOrNull(cur->right_adj);
    if (next == nullptr) return false;
    cur = next;
  }
}

void BatonNetwork::RelocateNodes(const std::vector<Move>& moves) {
  BATON_CHECK(!moves.empty());
  // Every target is either empty or held by a mover, so the slots the chain
  // creates are the targets empty before it starts. Their parents gain a
  // child and must notify their cachers afterwards.
  std::vector<Position> created_positions;
  for (const Move& m : moves) {
    if (OccupantOf(m.to) == kNullPeer) created_positions.push_back(m.to);
  }
  // Phase 1: vacate old positions (a fresh joiner holds none yet).
  std::vector<Position> vacated_positions;
  for (const Move& m : moves) {
    if (OccupantOf(m.node->pos) == m.node->id) {
      vacated_positions.push_back(m.node->pos);
      UnindexPosition(m.node);
    }
  }
  // Phase 2: occupy new positions (tables are re-dimensioned and cleared).
  for (const Move& m : moves) {
    SetPosition(m.node, m.to);
    IndexPosition(m.node);
  }
  // An old position no mover took is vacated for good; a vacancy chain
  // leaves at most one.
  auto retaken = [this](const Position& p) {
    return OccupantOf(p) != kNullPeer;
  };
  vacated_positions.erase(std::remove_if(vacated_positions.begin(),
                                         vacated_positions.end(), retaken),
                          vacated_positions.end());
  BATON_CHECK_LE(vacated_positions.size(), 1u);

  // Phase 3: each mover re-binds its vertical links and rebuilds its tables.
  // One kRestructureShift message models the position handover; table
  // entries and link notifications are charged individually (the paper's
  // "adjusting the routing table requires O(log N) effort" per mover).
  for (const Move& m : moves) {
    BatonNode* n = m.node;
    // Children first, so SelfRef carries correct child bits afterwards.
    PeerId lc = OccupantOf(n->pos.LeftChild());
    if (lc != kNullPeer) {
      n->left_child = N(lc)->SelfRef();
      N(lc)->parent = n->SelfRef();
      Count(n->id, lc, net::MsgType::kParentNotify);
    } else {
      n->left_child.Clear();
    }
    PeerId rc = OccupantOf(n->pos.RightChild());
    if (rc != kNullPeer) {
      n->right_child = N(rc)->SelfRef();
      N(rc)->parent = n->SelfRef();
      Count(n->id, rc, net::MsgType::kParentNotify);
    } else {
      n->right_child.Clear();
    }
    if (!n->pos.IsRoot()) {
      PeerId pp = OccupantOf(n->pos.Parent());
      BATON_CHECK_NE(pp, kNullPeer)
          << "relocation left an orphan at " << n->pos;
      BatonNode* parent = N(pp);
      n->parent = parent->SelfRef();
      if (n->pos.IsLeftChild()) {
        parent->left_child = n->SelfRef();
      } else {
        parent->right_child = n->SelfRef();
      }
      Count(n->id, pp, net::MsgType::kRestructureShift);
    } else {
      n->parent.Clear();
      Count(n->id, n->id, net::MsgType::kRestructureShift);
    }
    // Adjacent nodes keep their identity but must learn the new coordinates.
    if (n->left_adj.valid()) {
      Count(n->id, n->left_adj.peer, net::MsgType::kAdjacentUpdate);
    }
    if (n->right_adj.valid()) {
      Count(n->id, n->right_adj.peer, net::MsgType::kAdjacentUpdate);
    }
  }
  for (const Move& m : moves) {
    RebuildRoutingTables(m.node, /*charge=*/true);
  }
  // Phase 4: push final metadata into every link that caches a mover.
  for (const Move& m : moves) {
    RefreshInboundRefs(m.node, std::nullopt);
  }
  // Parents of freshly created slots gained a child: their same-level
  // neighbours (and other cachers) must hear about the new child bit. This
  // is the accept-side child-status notification of section III-A.
  for (const Position& created : created_positions) {
    if (created.IsRoot()) continue;
    PeerId pp = OccupantOf(created.Parent());
    BATON_CHECK_NE(pp, kNullPeer);
    RefreshInboundRefs(N(pp), net::MsgType::kChildStatusNotify);
  }

  // Phase 5: clear the stale links pointing at the slot vacated for good.
  for (const Position& vacated : vacated_positions) {
    PeerId notifier = moves.back().node->id;
    if (!vacated.IsRoot()) {
      PeerId pp = OccupantOf(vacated.Parent());
      if (pp != kNullPeer) {
        BatonNode* parent = N(pp);
        NodeRef* slot = vacated.IsLeftChild() ? &parent->left_child
                                              : &parent->right_child;
        if (slot->valid() && slot->pos == vacated) slot->Clear();
        Count(notifier, pp, net::MsgType::kParentNotify);
        // The parent's child bits changed; its cachers must hear about it.
        RefreshInboundRefs(parent, net::MsgType::kChildStatusNotify);
      }
    }
    ClearReverseEntriesAt(vacated, notifier);
  }
}

}  // namespace baton
