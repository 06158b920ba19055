// obs::LogHistogram: fixed-footprint value distribution behind every p50/p99
// the repo reports (hop counts, message bills, latency ticks, per-node load).
//
// Values below kExactLimit land in exact unit buckets; larger values fall
// into power-of-two buckets [2^k, 2^(k+1)). Per-bucket counts are exact, so
// a quantile estimate always lies in the same bucket as the true order
// statistic: exact below kExactLimit, within a factor of 2 above it (the
// mid-bucket representative keeps the relative error under 50%). Add() never
// allocates -- the bucket array is inline -- and histograms merge by
// bucket-wise addition, so per-task instances combine across seeds and
// worker threads without losing tail fidelity. (util::Histogram keeps exact
// per-value counts in a std::map; this one trades exactness above
// kExactLimit for O(1) memory and allocation-free updates on hot paths.)
#ifndef BATON_OBS_LOG_HISTOGRAM_H_
#define BATON_OBS_LOG_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace baton {
namespace obs {

class LogHistogram {
 public:
  /// Values in [0, kExactLimit) are counted exactly, one bucket per value.
  static constexpr uint64_t kExactLimit = 128;
  static constexpr int kExactBits = 7;  // log2(kExactLimit)
  /// One bucket per power of two from kExactLimit up to 2^63 (the last
  /// bucket absorbs everything >= 2^63, including UINT64_MAX).
  static constexpr int kNumBuckets =
      static_cast<int>(kExactLimit) + (64 - kExactBits);

  void Add(uint64_t value, uint64_t count = 1);
  /// Bucket-wise addition; associative and commutative.
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Smallest / largest value observed (0 when empty).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;

  /// Value v such that at least q of the mass is <= v's bucket, q in [0, 1];
  /// the estimate lies in the same bucket as the true order statistic.
  /// Returns 0 when the histogram is empty (zero-op aggregates must never
  /// divide or walk an empty distribution).
  ///
  /// Rank rule (shared with QuantileInterp): the estimated order statistic
  /// is the 1-based rank ceil(q * count), clamped to [1, count] -- i.e. the
  /// smallest sample with at least a q-fraction of the mass at or below it.
  /// Ranks 1 and count answer from the exactly-tracked min/max. Quantile()
  /// represents the winning bucket by its midpoint (lo + lo/2), clamped to
  /// [min, max].
  uint64_t Quantile(double q) const;

  /// Quantile with rank interpolation inside the winning power-of-two
  /// bucket: the estimate places the target rank linearly within the
  /// bucket's [lo, 2*lo) value range by its offset among the bucket's own
  /// samples, instead of answering the fixed midpoint. Far-tail quantiles
  /// (p99.9 and beyond) usually land in one wide bucket together with p99;
  /// interpolation is what keeps them distinguishable and monotone in q.
  /// Exact below kExactLimit; clamped to [min, max]; 0 when empty. Same
  /// rank rule as Quantile().
  uint64_t QuantileInterp(double q) const;

  /// Samples recorded in bucket i (test/introspection access).
  uint64_t bucket_count(int i) const { return buckets_[static_cast<size_t>(i)]; }
  /// Inclusive lower edge of bucket i's value range.
  static uint64_t BucketLow(int i);

  bool operator==(const LogHistogram& other) const;
  bool operator!=(const LogHistogram& other) const { return !(*this == other); }

 private:
  static int BucketIndex(uint64_t value);
  /// Quantile (bucket midpoint) or QuantileInterp (rank interpolation).
  uint64_t Estimate(double q, bool interpolate) const;

  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace obs
}  // namespace baton

#endif  // BATON_OBS_LOG_HISTOGRAM_H_
