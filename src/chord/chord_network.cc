#include "chord/chord_network.h"

#include <algorithm>

#include "util/check.h"

namespace baton {
namespace chord {

ChordNetwork::ChordNetwork(net::Network* net, uint64_t seed)
    : net_(net), rng_(seed), salt_(Mix64(seed ^ 0xc0ffee)) {
  BATON_CHECK(net != nullptr);
}

ChordId ChordNetwork::HashKey(Key k) {
  return static_cast<ChordId>(Mix64(static_cast<uint64_t>(k)) >> (64 - kBits));
}

ChordId ChordNetwork::HashPeer(PeerId p, uint64_t salt) {
  return static_cast<ChordId>(Mix64(p ^ salt) >> (64 - kBits));
}

ChordNode* ChordNetwork::N(PeerId p) {
  BATON_CHECK_LT(p, nodes_.size());
  return nodes_[p].get();
}

const ChordNode* ChordNetwork::N(PeerId p) const {
  BATON_CHECK_LT(p, nodes_.size());
  return nodes_[p].get();
}

const ChordNode& ChordNetwork::node(PeerId p) const { return *N(p); }

bool ChordNetwork::InIntervalOpenClosed(ChordId x, ChordId a, ChordId b) {
  if (a == b) return true;  // the full ring
  if (a < b) return x > a && x <= b;
  return x > a || x <= b;  // wrapped
}

bool ChordNetwork::InIntervalOpen(ChordId x, ChordId a, ChordId b) {
  if (a == b) return x != a;  // full ring minus the endpoint
  if (a < b) return x > a && x < b;
  return x > a || x < b;
}

PeerId ChordNetwork::Bootstrap() {
  BATON_CHECK(members_.empty());
  auto node = std::make_unique<ChordNode>();
  node->id = net_->Register();
  node->chord_id = HashPeer(node->id, salt_);
  used_ids_.insert(node->chord_id);
  node->in_ring = true;
  node->successor = node->id;
  node->predecessor = node->id;
  node->fingers.fill(node->id);
  PeerId id = node->id;
  nodes_.push_back(std::move(node));
  members_.push_back(id);
  return id;
}

PeerId ChordNetwork::ClosestPrecedingFinger(const ChordNode* n,
                                            ChordId id) const {
  for (int i = kBits - 1; i >= 0; --i) {
    PeerId f = n->fingers[static_cast<size_t>(i)];
    if (f == kNullPeer) continue;
    if (InIntervalOpen(N(f)->chord_id, n->chord_id, id)) return f;
  }
  return n->id;
}

PeerId ChordNetwork::FindPredecessor(PeerId from, ChordId id,
                                     net::MsgType hop_type, int* hops) {
  const ChordNode* n = N(from);
  int guard = 4 * kBits + static_cast<int>(size());
  while (!InIntervalOpenClosed(id, n->chord_id, N(n->successor)->chord_id)) {
    BATON_CHECK_GE(--guard, 0) << "chord routing did not terminate";
    PeerId next = ClosestPrecedingFinger(n, id);
    if (next == n->id) {
      // Fingers give no progress (small rings): fall back to the successor.
      next = n->successor;
    }
    net_->Count(n->id, next, hop_type);
    if (hops != nullptr) ++*hops;
    n = N(next);
  }
  return n->id;
}

PeerId ChordNetwork::FindSuccessor(PeerId from, ChordId id,
                                   net::MsgType hop_type, int* hops) {
  PeerId pred = FindPredecessor(from, id, hop_type, hops);
  PeerId succ = N(pred)->successor;
  // One message to learn the predecessor's successor.
  net_->Count(pred, succ, hop_type);
  if (hops != nullptr) ++*hops;
  return succ;
}

Result<PeerId> ChordNetwork::Join(PeerId contact) {
  BATON_CHECK(!members_.empty()) << "Bootstrap the ring first";
  if (!N(contact)->in_ring) {
    return Status::InvalidArgument("contact is not a ring member");
  }
  auto fresh = std::make_unique<ChordNode>();
  fresh->id = net_->Register();
  fresh->fingers.fill(kNullPeer);
  PeerId nid = fresh->id;
  nodes_.push_back(std::move(fresh));
  ChordNode* n = N(nid);
  n->in_ring = true;

  // 32-bit identifiers collide with non-negligible probability at 10^4
  // peers (birthday bound); a colliding joiner re-hashes with a nonce, as a
  // real deployment would re-derive its identifier.
  uint64_t nonce = 0;
  do {
    n->chord_id = HashPeer(nid, salt_ ^ Mix64(nonce++));
  } while (!used_ids_.insert(n->chord_id).second);

  // Locate n's successor (counted as the join's search phase).
  int hops = 0;
  PeerId succ = FindSuccessor(contact, n->chord_id, net::MsgType::kChordLookup,
                              &hops);
  ChordNode* s = N(succ);
  PeerId pred = s->predecessor;
  n->successor = succ;
  n->predecessor = pred;
  N(pred)->successor = nid;
  s->predecessor = nid;
  net_->Count(nid, pred, net::MsgType::kChordNotify);
  net_->Count(nid, succ, net::MsgType::kChordNotify);

  // Keys in (pred, n] move from the successor.
  net_->Count(succ, nid, net::MsgType::kChordKeyMove);
  {
    // Extract the hashed keys that now belong to n. KeyBag stores the hashed
    // ids as signed keys; ring intervals may wrap, so split the extraction.
    ChordId lo = N(pred)->chord_id;
    ChordId hi = n->chord_id;
    KeyBag moved;
    if (lo < hi) {
      KeyBag part = s->keys.ExtractAtLeast(static_cast<Key>(lo) + 1);
      KeyBag keep = part.ExtractAtLeast(static_cast<Key>(hi) + 1);
      moved.Absorb(&part);
      s->keys.Absorb(&keep);
    } else {
      KeyBag low = s->keys.ExtractBelow(static_cast<Key>(hi) + 1);
      KeyBag high = s->keys.ExtractAtLeast(static_cast<Key>(lo) + 1);
      moved.Absorb(&low);
      moved.Absorb(&high);
    }
    n->keys.Absorb(&moved);
  }

  InitFingerTable(n, contact);
  UpdateOthersOnJoin(n);

  members_.insert(std::upper_bound(members_.begin(), members_.end(), nid,
                                   [this](PeerId a, PeerId b) {
                                     return N(a)->chord_id < N(b)->chord_id;
                                   }),
                  nid);
  return nid;
}

void ChordNetwork::InitFingerTable(ChordNode* n, PeerId contact) {
  // Original optimisation: when finger[i].start still precedes finger[i-1]'s
  // node, the same node covers it and no lookup is needed.
  n->fingers[0] = n->successor;
  for (int i = 1; i < kBits; ++i) {
    ChordId start =
        n->chord_id + (static_cast<ChordId>(1) << i);  // wraps mod 2^kBits
    PeerId prev = n->fingers[static_cast<size_t>(i - 1)];
    ChordId prev_id = N(prev)->chord_id;
    // start in [n, prev_id) on the ring.
    if (start == n->chord_id || InIntervalOpen(start, n->chord_id, prev_id)) {
      n->fingers[static_cast<size_t>(i)] = prev;
      continue;
    }
    n->fingers[static_cast<size_t>(i)] =
        FindSuccessor(contact, start, net::MsgType::kChordJoinInit, nullptr);
  }
}

void ChordNetwork::UpdateOthersOnJoin(ChordNode* n) {
  // Node q must re-point its i-th finger at n iff successor(q + 2^i) == n,
  // i.e. q + 2^i lies in (pred(n), n]. Candidates are found by walking
  // predecessors from the last node at or before n - 2^i (the classic
  // pseudo-code's find_predecessor(n - 2^i) with the +1 fix).
  ChordId pred_id = N(n->predecessor)->chord_id;
  for (int i = 0; i < kBits; ++i) {
    ChordId span = static_cast<ChordId>(1) << i;
    ChordId target = n->chord_id - span;
    PeerId pid = FindPredecessor(n->id, static_cast<ChordId>(target + 1),
                                 net::MsgType::kChordUpdateOthers, nullptr);
    int guard = static_cast<int>(size()) + 2;
    while (guard-- > 0) {
      ChordNode* p = N(pid);
      if (p->id == n->id) {  // the new node's own fingers were just built
        pid = p->predecessor;
        continue;
      }
      ChordId start = p->chord_id + span;
      if (!InIntervalOpenClosed(start, pred_id, n->chord_id)) break;
      if (p->fingers[static_cast<size_t>(i)] != n->id) {
        net_->Count(n->id, pid, net::MsgType::kChordUpdateOthers);
        p->fingers[static_cast<size_t>(i)] = n->id;
      }
      pid = p->predecessor;
    }
  }
}

void ChordNetwork::UpdateOthersOnLeave(ChordNode* n) {
  // Fingers pointing at n belong to nodes q with q + 2^i in (pred(n), n];
  // they are redirected to n's successor. Runs while n is still linked, so
  // routing during the walks behaves normally.
  ChordId pred_id = N(n->predecessor)->chord_id;
  for (int i = 0; i < kBits; ++i) {
    ChordId span = static_cast<ChordId>(1) << i;
    ChordId target = n->chord_id - span;
    PeerId pid = FindPredecessor(n->successor, static_cast<ChordId>(target + 1),
                                 net::MsgType::kChordUpdateOthers, nullptr);
    int guard = static_cast<int>(size()) + 2;
    while (guard-- > 0) {
      ChordNode* p = N(pid);
      if (p->id == n->id) {
        pid = p->predecessor;
        continue;
      }
      ChordId start = p->chord_id + span;
      if (!InIntervalOpenClosed(start, pred_id, n->chord_id)) break;
      if (p->fingers[static_cast<size_t>(i)] == n->id) {
        net_->Count(n->id, pid, net::MsgType::kChordUpdateOthers);
        p->fingers[static_cast<size_t>(i)] = n->successor;
      }
      pid = p->predecessor;
    }
  }
}

Status ChordNetwork::Leave(PeerId leaver) {
  ChordNode* n = N(leaver);
  if (!n->in_ring) return Status::InvalidArgument("not a ring member");
  if (size() == 1) {
    total_keys_ -= n->keys.size();
    n->keys = KeyBag{};
    n->in_ring = false;
    members_.clear();
    net_->MarkDead(leaver);
    return Status::OK();
  }
  // Redirect fingers first (routing still works while n is linked), then
  // move keys and unlink the ring pointers.
  UpdateOthersOnLeave(n);
  net_->Count(n->id, n->successor, net::MsgType::kChordKeyMove);
  N(n->successor)->keys.Absorb(&n->keys);
  N(n->predecessor)->successor = n->successor;
  N(n->successor)->predecessor = n->predecessor;
  net_->Count(n->id, n->predecessor, net::MsgType::kChordNotify);
  net_->Count(n->id, n->successor, net::MsgType::kChordNotify);

  members_.erase(std::find(members_.begin(), members_.end(), leaver));
  n->in_ring = false;
  net_->MarkDead(leaver);
  return Status::OK();
}

Result<ChordNetwork::LookupResult> ChordNetwork::Lookup(PeerId from, Key key) {
  if (!N(from)->in_ring) {
    return Status::InvalidArgument("query origin not in the ring");
  }
  LookupResult res;
  ChordId id = HashKey(key);
  res.node = FindSuccessor(from, id, net::MsgType::kExactQuery, &res.hops);
  res.found = N(res.node)->keys.Contains(static_cast<Key>(id));
  return res;
}

Status ChordNetwork::Insert(PeerId from, Key key) {
  if (!N(from)->in_ring) {
    return Status::InvalidArgument("origin not in the ring");
  }
  ChordId id = HashKey(key);
  int hops = 0;
  PeerId owner = FindSuccessor(from, id, net::MsgType::kInsert, &hops);
  N(owner)->keys.Insert(static_cast<Key>(id));
  ++total_keys_;
  return Status::OK();
}

Status ChordNetwork::Delete(PeerId from, Key key) {
  if (!N(from)->in_ring) {
    return Status::InvalidArgument("origin not in the ring");
  }
  ChordId id = HashKey(key);
  int hops = 0;
  PeerId owner = FindSuccessor(from, id, net::MsgType::kDelete, &hops);
  if (!N(owner)->keys.Erase(static_cast<Key>(id))) {
    return Status::NotFound("key " + std::to_string(key));
  }
  --total_keys_;
  return Status::OK();
}

void ChordNetwork::CheckInvariants() const {
  if (members_.empty()) return;
  // members_ sorted by chord id.
  for (size_t i = 0; i + 1 < members_.size(); ++i) {
    BATON_CHECK_LT(N(members_[i])->chord_id, N(members_[i + 1])->chord_id);
  }
  uint64_t keys = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    const ChordNode* n = N(members_[i]);
    const ChordNode* succ = N(members_[(i + 1) % members_.size()]);
    const ChordNode* pred =
        N(members_[(i + members_.size() - 1) % members_.size()]);
    BATON_CHECK(n->in_ring);
    BATON_CHECK_EQ(n->successor, succ->id);
    BATON_CHECK_EQ(n->predecessor, pred->id);
    // Fingers: fingers[i] is the first live node at or after chord_id + 2^i.
    for (int b = 0; b < kBits; ++b) {
      ChordId start = n->chord_id + (static_cast<ChordId>(1) << b);
      PeerId expect = kNullPeer;
      // Find successor of start by scanning the sorted ring.
      auto it = std::lower_bound(members_.begin(), members_.end(), start,
                                 [this](PeerId a, ChordId v) {
                                   return N(a)->chord_id < v;
                                 });
      expect = it == members_.end() ? members_.front() : *it;
      BATON_CHECK_EQ(n->fingers[static_cast<size_t>(b)], expect)
          << "finger " << b << " of node " << n->id;
    }
    // Keys: every stored hashed id belongs to (pred, n].
    for (Key hk : n->keys.SortedKeys()) {
      BATON_CHECK(InIntervalOpenClosed(static_cast<ChordId>(hk),
                                       pred->chord_id, n->chord_id))
          << "key " << hk << " misplaced at node " << n->id;
    }
    keys += n->keys.size();
  }
  BATON_CHECK_EQ(keys, total_keys_);
}

}  // namespace chord
}  // namespace baton
