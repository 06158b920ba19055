#include "fault/fault.h"

#include "util/check.h"

namespace baton {
namespace fault {

Plan::Plan(const PlanConfig& cfg)
    : by_category_(net::kNumMsgCategories, cfg.all),
      rng_(Mix64(cfg.seed ^ 0xfa017135eedULL)) {
  BATON_CHECK(cfg.all.drop >= 0 && cfg.all.drop <= 1.0);
  BATON_CHECK(cfg.all.duplicate >= 0 && cfg.all.duplicate <= 1.0);
}

void Plan::SetCategoryFaults(net::MsgCategory c, const LinkFaults& f) {
  size_t i = static_cast<size_t>(c);
  BATON_CHECK_LT(i, by_category_.size());
  by_category_[i] = f;
}

net::FaultInjector::Decision Plan::OnMessage(net::PeerId /*from*/,
                                             net::PeerId /*to*/,
                                             net::MsgType type) {
  Decision d;
  const LinkFaults& lf =
      by_category_[static_cast<size_t>(net::CategoryOf(type))];
  // Coins are drawn lazily (a zero probability consumes no rng state), so
  // an all-zero plan leaves the schedule empty; determinism only requires
  // identical config + seed + message sequence, which callers guarantee.
  if (lf.drop > 0 && rng_.NextBool(lf.drop)) {
    d.drop = true;
    ++dropped_;
  }
  if (lf.duplicate > 0 && rng_.NextBool(lf.duplicate)) {
    d.duplicates = 1;
    ++duplicated_;
  }
  return d;
}

}  // namespace fault
}  // namespace baton
