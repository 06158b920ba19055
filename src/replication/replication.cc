#include "replication/replication.h"

#include <algorithm>

#include "util/check.h"

namespace baton {
namespace replication {

ReplicationManager::ReplicationManager(const ReplicationConfig& config,
                                       net::Network* net)
    : config_(config), net_(net) {
  BATON_CHECK(net != nullptr);
  BATON_CHECK_GE(config.factor, 0);
}

void ReplicationManager::SyncRecord(net::PeerId sender,
                                    const PrimaryState& st, ReplicaRecord* rec,
                                    const KeyBag& data) {
  net_->Count(sender, rec->holder, net::MsgType::kReplicaSync);
  rec->keys = data;
  rec->version = st.version;
}

ReplicationManager::PrimaryState& ReplicationManager::StateOf(
    net::PeerId primary) {
  if (primary >= primaries_.size()) primaries_.resize(size_t{primary} + 1);
  return primaries_[primary];
}

void ReplicationManager::IndexHolder(net::PeerId holder, net::PeerId primary) {
  if (holder >= held_for_.size()) held_for_.resize(size_t{holder} + 1);
  held_for_[holder].push_back(primary);
}

void ReplicationManager::UnindexHolder(net::PeerId holder,
                                       net::PeerId primary) {
  if (holder >= held_for_.size()) return;
  std::vector<net::PeerId>& v = held_for_[holder];
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == primary) {
      v[i] = v.back();
      v.pop_back();
      break;
    }
  }
}

void ReplicationManager::PruneDeadHolders(net::PeerId primary,
                                          PrimaryState* st) {
  auto dead = [&](const ReplicaRecord& r) { return !net_->IsAlive(r.holder); };
  for (const ReplicaRecord& r : st->replicas) {
    if (dead(r)) UnindexHolder(r.holder, primary);
  }
  st->replicas.erase(
      std::remove_if(st->replicas.begin(), st->replicas.end(), dead),
      st->replicas.end());
}

size_t ReplicationManager::TopUpHolders(
    net::PeerId primary, net::PeerId sender, PrimaryState* st,
    const KeyBag& data, const std::vector<net::PeerId>& candidates) {
  size_t added = 0;
  for (net::PeerId cand : candidates) {
    if (st->replicas.size() >= static_cast<size_t>(config_.factor)) break;
    if (cand == primary || !net_->IsAlive(cand)) continue;
    bool already = false;
    for (const ReplicaRecord& r : st->replicas) {
      if (r.holder == cand) already = true;
    }
    if (already) continue;
    ReplicaRecord rec;
    rec.holder = cand;
    st->replicas.push_back(std::move(rec));
    SyncRecord(sender, *st, &st->replicas.back(), data);
    IndexHolder(cand, primary);
    ++added;
  }
  return added;
}

void ReplicationManager::FullSync(net::PeerId primary, const KeyBag& data,
                                  const std::vector<net::PeerId>& candidates,
                                  net::PeerId sender) {
  if (!enabled()) return;
  if (sender == net::kNullPeer) sender = primary;
  PrimaryState& st = StateOf(primary);
  ++st.version;  // the bag changed in bulk: every copy is now stale
  PruneDeadHolders(primary, &st);
  for (ReplicaRecord& rec : st.replicas) {
    SyncRecord(sender, st, &rec, data);
  }
  TopUpHolders(primary, sender, &st, data, candidates);
}

void ReplicationManager::PushInsert(net::PeerId primary, Key k) {
  if (!enabled()) return;
  PrimaryState& st = StateOf(primary);
  ++st.version;
  if (!config_.eager_push) return;
  for (ReplicaRecord& rec : st.replicas) {
    if (!net_->IsAlive(rec.holder)) continue;  // goes stale; repaired later
    net_->Count(primary, rec.holder, net::MsgType::kReplicaPush);
    rec.keys.Insert(k);
    rec.version = st.version;
  }
}

void ReplicationManager::PushErase(net::PeerId primary, Key k) {
  if (!enabled()) return;
  PrimaryState& st = StateOf(primary);
  ++st.version;
  if (!config_.eager_push) return;
  for (ReplicaRecord& rec : st.replicas) {
    if (!net_->IsAlive(rec.holder)) continue;
    net_->Count(primary, rec.holder, net::MsgType::kReplicaPush);
    rec.keys.Erase(k);
    rec.version = st.version;
  }
}

void ReplicationManager::DropPrimary(net::PeerId primary, net::PeerId notifier,
                                     bool charge) {
  if (!enabled()) return;
  PrimaryState& st = StateOf(primary);
  for (const ReplicaRecord& rec : st.replicas) {
    if (charge && net_->IsAlive(rec.holder)) {
      net_->Count(notifier, rec.holder, net::MsgType::kReplicaDrop);
    }
    UnindexHolder(rec.holder, primary);
  }
  st = PrimaryState{};
}

std::vector<net::PeerId> ReplicationManager::ReleaseHolder(
    net::PeerId holder) {
  std::vector<net::PeerId> affected;
  if (!enabled()) return affected;
  if (holder >= held_for_.size()) return affected;
  affected.swap(held_for_[holder]);
  for (net::PeerId primary : affected) {
    auto held = [&](const ReplicaRecord& r) { return r.holder == holder; };
    std::vector<ReplicaRecord>& reps = StateOf(primary).replicas;
    reps.erase(std::remove_if(reps.begin(), reps.end(), held), reps.end());
  }
  return affected;
}

std::vector<net::PeerId> ReplicationManager::HeldPrimaries(
    net::PeerId holder) const {
  return holder < held_for_.size() ? held_for_[holder]
                                   : std::vector<net::PeerId>{};
}

bool ReplicationManager::RelocateReplica(
    net::PeerId primary, net::PeerId from,
    const std::vector<net::PeerId>& candidates) {
  if (!enabled()) return false;
  PrimaryState* pst = &StateOf(primary);
  ReplicaRecord* rec = nullptr;
  for (ReplicaRecord& r : pst->replicas) {
    if (r.holder == from) rec = &r;
  }
  if (rec == nullptr) return false;
  net::PeerId dest = net::kNullPeer;
  for (net::PeerId cand : candidates) {
    if (cand == primary || cand == from || !net_->IsAlive(cand)) continue;
    bool already = false;
    for (const ReplicaRecord& r : pst->replicas) {
      if (r.holder == cand) already = true;
    }
    if (!already) {
      dest = cand;
      break;
    }
  }
  UnindexHolder(from, primary);
  if (dest == net::kNullPeer) {
    // Nowhere to hand off: the copy leaves with the holder.
    auto held = [&](const ReplicaRecord& r) { return r.holder == from; };
    std::vector<ReplicaRecord>& reps = pst->replicas;
    reps.erase(std::remove_if(reps.begin(), reps.end(), held), reps.end());
    return false;
  }
  net_->Count(from, dest, net::MsgType::kReplicaSync);
  rec->holder = dest;  // contents and version travel with the copy
  IndexHolder(dest, primary);
  return true;
}

size_t ReplicationManager::TopUp(net::PeerId primary, const KeyBag& data,
                                 const std::vector<net::PeerId>& candidates) {
  if (!enabled()) return 0;
  PrimaryState& st = StateOf(primary);
  PruneDeadHolders(primary, &st);
  return TopUpHolders(primary, primary, &st, data, candidates);
}

bool ReplicationManager::Restore(net::PeerId failed, net::PeerId initiator,
                                 KeyBag* out) {
  if (!enabled()) return false;
  const PrimaryState* st = FindState(failed);
  if (st == nullptr) return false;
  const ReplicaRecord* best = nullptr;
  for (const ReplicaRecord& rec : st->replicas) {
    if (!net_->IsAlive(rec.holder)) continue;
    if (best == nullptr || rec.version > best->version) best = &rec;
  }
  if (best == nullptr) return false;
  net_->Count(initiator, best->holder, net::MsgType::kReplicaRestore);
  net_->Count(best->holder, initiator, net::MsgType::kReplicaRestoreReply);
  *out = best->keys;
  return true;
}

RepairStats ReplicationManager::Repair(
    net::PeerId primary, const KeyBag& data,
    const std::vector<net::PeerId>& candidates) {
  RepairStats stats;
  if (!enabled()) return stats;
  PrimaryState& st = StateOf(primary);
  PruneDeadHolders(primary, &st);
  for (ReplicaRecord& rec : st.replicas) {
    net_->Count(primary, rec.holder, net::MsgType::kReplicaProbe);
    net_->Count(rec.holder, primary, net::MsgType::kReplicaProbeReply);
    ++stats.probed;
    if (rec.version != st.version) {
      SyncRecord(primary, st, &rec, data);
      ++stats.healed;
    }
  }
  stats.rehomed = TopUpHolders(primary, primary, &st, data, candidates);
  return stats;
}

size_t ReplicationManager::replica_count(net::PeerId primary) const {
  const PrimaryState* st = FindState(primary);
  return st == nullptr ? 0 : st->replicas.size();
}

size_t ReplicationManager::live_replica_count(net::PeerId primary) const {
  const PrimaryState* st = FindState(primary);
  if (st == nullptr) return 0;
  size_t live = 0;
  for (const ReplicaRecord& rec : st->replicas) {
    if (net_->IsAlive(rec.holder)) ++live;
  }
  return live;
}

std::vector<net::PeerId> ReplicationManager::HoldersOf(
    net::PeerId primary) const {
  std::vector<net::PeerId> out;
  const PrimaryState* st = FindState(primary);
  if (st == nullptr) return out;
  for (const ReplicaRecord& rec : st->replicas) {
    out.push_back(rec.holder);
  }
  return out;
}

const KeyBag* ReplicationManager::ReplicaAt(net::PeerId primary,
                                            net::PeerId holder) const {
  const PrimaryState* st = FindState(primary);
  if (st == nullptr) return nullptr;
  for (const ReplicaRecord& rec : st->replicas) {
    if (rec.holder == holder) return &rec.keys;
  }
  return nullptr;
}

uint64_t ReplicationManager::total_replica_keys() const {
  uint64_t total = 0;
  for (const PrimaryState& st : primaries_) {
    for (const ReplicaRecord& rec : st.replicas) {
      total += rec.keys.size();
    }
  }
  return total;
}

void ReplicationManager::CheckConsistent(net::PeerId primary,
                                         const KeyBag& data) const {
  const PrimaryState* stp = FindState(primary);
  if (stp == nullptr) return;
  const PrimaryState& st = *stp;
  for (const ReplicaRecord& rec : st.replicas) {
    BATON_CHECK_LE(rec.version, st.version)
        << "replica of " << primary << " at " << rec.holder
        << " is from the future";
    if (rec.version != st.version) continue;  // stale copy: anti-entropy's job
    BATON_CHECK(rec.keys.SortedKeys() == data.SortedKeys())
        << "up-to-date replica of " << primary << " at " << rec.holder
        << " diverged: " << rec.keys.size() << " keys vs primary's "
        << data.size();
  }
}

}  // namespace replication
}  // namespace baton
