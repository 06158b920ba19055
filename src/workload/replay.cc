#include "workload/replay.h"

#include "util/check.h"

namespace baton {
namespace workload {

void OpAggregate::Accumulate(const overlay::OpStats& st) {
  Add(st.outcome());
  if (st.found) ++found;
  retries += static_cast<uint64_t>(st.retries > 0 ? st.retries : 0);
  timeouts += static_cast<uint64_t>(st.timeouts > 0 ? st.timeouts : 0);
  if (st.gave_up) ++gave_up;
  if (st.degraded) ++degraded;
  dropped_msgs += st.dropped_msgs;
}

AppliedOp ApplyOp(overlay::Overlay& ov, const Op& op, Rng* rng,
                  std::vector<net::PeerId>* members) {
  AppliedOp out;
  // The one rng draw this op gets, taken before any capability or guard
  // check so every backend consumes an identical random stream.
  size_t idx = rng->NextBelow(members->size());
  net::PeerId peer = (*members)[idx];
  switch (op.type) {
    case OpType::kJoin: {
      out.stats = ov.Join(peer);
      if (out.stats.ok()) members->push_back(out.stats.peer);
      break;
    }
    case OpType::kLeave: {
      if (members->size() <= kMinMembers) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      out.stats = ov.Leave(peer);
      if (out.stats.ok()) {
        members->erase(members->begin() + static_cast<long>(idx));
      }
      break;
    }
    case OpType::kFail: {
      if (members->size() <= kMinMembers) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      if (!ov.Supports(overlay::kFailRecovery)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      out.stats = ov.Fail(peer);
      if (out.stats.ok()) {
        overlay::OpStats rec = ov.RecoverAllFailures();
        BATON_CHECK(rec.ok()) << rec.status.ToString();
        out.stats.messages += rec.messages;
        out.stats.latency_ticks += rec.latency_ticks;
        members->erase(members->begin() + static_cast<long>(idx));
      }
      break;
    }
    case OpType::kFailRegion: {
      size_t width = static_cast<size_t>(op.key_hi);
      if (width == 0) width = 1;
      if (members->size() <= kMinMembers + width) {
        out.disposition = AppliedOp::Disposition::kSkipped;
        break;
      }
      if (!ov.Supports(overlay::kFailRecovery)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      // The drawn index anchors the outage in the backend's canonical
      // key-space order (not join order): `width` *consecutive* members
      // fail together, modelling one region / subtree extent going dark,
      // then recovery runs once over the whole burst.
      std::vector<net::PeerId> canon = ov.Members();
      BATON_CHECK_EQ(canon.size(), members->size());
      std::vector<net::PeerId> victims;
      victims.reserve(width);
      for (size_t j = 0; j < width; ++j) {
        victims.push_back(canon[(idx + j) % canon.size()]);
      }
      for (net::PeerId v : victims) {
        overlay::OpStats f = ov.Fail(v);
        BATON_CHECK(f.ok()) << f.status.ToString();
        out.stats.messages += f.messages;
        out.stats.latency_ticks += f.latency_ticks;
        out.stats.dropped_msgs += f.dropped_msgs;
        out.stats.degraded = out.stats.degraded || f.degraded;
      }
      overlay::OpStats rec = ov.RecoverAllFailures();
      BATON_CHECK(rec.ok()) << rec.status.ToString();
      out.stats.messages += rec.messages;
      out.stats.latency_ticks += rec.latency_ticks;
      out.stats.dropped_msgs += rec.dropped_msgs;
      out.stats.degraded = out.stats.degraded || rec.degraded;
      for (net::PeerId v : victims) {
        for (size_t m = 0; m < members->size(); ++m) {
          if ((*members)[m] == v) {
            members->erase(members->begin() + static_cast<long>(m));
            break;
          }
        }
      }
      break;
    }
    case OpType::kInsert:
      out.stats = ov.Insert(peer, op.key);
      break;
    case OpType::kDelete:
      out.stats = ov.Delete(peer, op.key);
      break;
    case OpType::kExact:
      out.stats = ov.ExactSearch(peer, op.key);
      break;
    case OpType::kRange: {
      if (!ov.Supports(overlay::kRangeSearch)) {
        out.disposition = AppliedOp::Disposition::kUnsupported;
        break;
      }
      out.stats = ov.RangeSearch(peer, op.key, op.key_hi);
      break;
    }
    case OpType::kNumOpTypes:
      BATON_CHECK(false) << "kNumOpTypes is a sentinel, not an op";
  }
  return out;
}

ReplayResult Replay(overlay::Overlay& ov, const Trace& trace, Rng* rng,
                    std::vector<net::PeerId>* members,
                    const ReplayOptions& opts) {
  BATON_CHECK(members != nullptr && !members->empty())
      << "Replay needs a bootstrapped overlay with at least one member";
  ReplayResult res;
  for (const Op& op : trace) {
    res.Record(op, ApplyOp(ov, op, rng, members), opts.record_answers);
  }
  return res;
}

bool ReplayResult::Record(const Op& op, const AppliedOp& applied,
                          bool record_answers) {
  OpAggregate* agg = &per_op[static_cast<size_t>(op.type)];
  switch (applied.disposition) {
    case AppliedOp::Disposition::kSkipped:
      ++agg->skipped;
      return false;
    case AppliedOp::Disposition::kUnsupported:
      ++agg->unsupported;
      return false;
    case AppliedOp::Disposition::kExecuted:
      break;
  }
  agg->Accumulate(applied.stats);
  if (record_answers) {
    if (op.type == OpType::kExact) {
      exact_found.push_back(applied.stats.found);
    } else if (op.type == OpType::kRange) {
      range_matches.push_back(applied.stats.matches);
    }
  }
  return true;
}

}  // namespace workload
}  // namespace baton
