// Workload generation matching the paper's experimental setup (section V):
// values in [1, 10^9), uniform or Zipfian (theta = 1.0) distributions,
// inserted in batches; exact and range query generators; churn traces.
#ifndef BATON_WORKLOAD_WORKLOAD_H_
#define BATON_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/keys.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace baton {
namespace workload {

/// Key generator interface.
class KeyGenerator {
 public:
  virtual ~KeyGenerator() = default;
  virtual Key Next(Rng* rng) = 0;
};

/// Uniform keys over [lo, hi).
class UniformKeys : public KeyGenerator {
 public:
  UniformKeys(Key lo, Key hi) : lo_(lo), hi_(hi) {}
  Key Next(Rng* rng) override { return rng->UniformInt(lo_, hi_ - 1); }

 private:
  Key lo_;
  Key hi_;
};

/// Zipf-skewed keys: rank r (Zipf-distributed over `ranks` buckets) maps to
/// the r-th bucket of the domain, uniformly within the bucket. Low ranks --
/// the popular mass -- cluster at the bottom of the key space, reproducing
/// the value-skew that stresses a range-partitioned index.
class ZipfKeys : public KeyGenerator {
 public:
  ZipfKeys(Key lo, Key hi, double theta, uint64_t ranks = 1 << 20);
  Key Next(Rng* rng) override;

 private:
  Key lo_;
  Key hi_;
  uint64_t ranks_;
  ZipfGenerator zipf_;
};

/// A recorded operation stream.
enum class OpType : uint8_t {
  kInsert,
  kDelete,
  kExact,
  kRange,
  kJoin,
  kLeave,
  kFail,  // abrupt failure of a random peer (churn traces)
  /// Correlated region outage: `key_hi` consecutive members (canonical
  /// key-space order, anchored at a random member) fail *together* before
  /// recovery runs once -- a subtree / rack going dark, not independent
  /// churn. Requires kFailRecovery.
  kFailRegion,
  kNumOpTypes,  // sentinel
};

inline constexpr int kNumOpTypes = static_cast<int>(OpType::kNumOpTypes);
struct Op {
  OpType type;
  Key key = 0;
  Key key_hi = 0;  // for range queries
};

/// A recorded operation stream, replayable against any overlay backend
/// (see workload/replay.h).
using Trace = std::vector<Op>;

/// Builds a mixed operation trace with the given counts, shuffled.
std::vector<Op> MakeMixedTrace(Rng* rng, KeyGenerator* gen, size_t inserts,
                               size_t deletes, size_t exacts, size_t ranges,
                               Key range_width);

/// Operation mix for a churn trace (the durability experiments).
struct ChurnMix {
  size_t joins = 0;
  size_t leaves = 0;
  size_t failures = 0;  // each kFail op crashes one random live peer
  size_t inserts = 0;
  size_t exacts = 0;
  size_t ranges = 0;       // range queries of width range_width
  Key range_width = 0;
};

/// Builds a shuffled membership-churn trace: joins, graceful leaves, abrupt
/// failures and index traffic interleaved. Key-less ops (join/leave/fail)
/// carry key == 0; the driver picks the affected peer.
std::vector<Op> MakeChurnTrace(Rng* rng, KeyGenerator* gen,
                               const ChurnMix& mix);

/// Operation mix for a correlated-failure trace: like ChurnMix, but the
/// failure events are whole-region outages (kFailRegion) instead of
/// independent single-node crashes: whole subtrees failing at once, like
/// region outages, measured at the membership level.
struct CorrelatedFailMix {
  size_t bursts = 0;       // correlated outage events
  size_t burst_width = 4;  // consecutive canonical-order members per event
  size_t joins = 0;
  size_t inserts = 0;
  size_t exacts = 0;
  size_t ranges = 0;  // range queries of width range_width
  Key range_width = 0;
};

/// Builds a shuffled correlated-failure trace (Fig 8-style churn where
/// failures arrive in spatially-correlated bursts). Replayable like any
/// other trace; backends without kFailRecovery count the bursts as
/// unsupported, exactly like kFail.
std::vector<Op> MakeCorrelatedFailTrace(Rng* rng, KeyGenerator* gen,
                                        const CorrelatedFailMix& mix);

}  // namespace workload
}  // namespace baton

#endif  // BATON_WORKLOAD_WORKLOAD_H_
