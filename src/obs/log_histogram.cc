#include "obs/log_histogram.h"

namespace baton {
namespace obs {

int LogHistogram::BucketIndex(uint64_t value) {
  if (value < kExactLimit) return static_cast<int>(value);
  int msb = 63 - __builtin_clzll(value);  // >= kExactBits here
  return static_cast<int>(kExactLimit) + (msb - kExactBits);
}

uint64_t LogHistogram::BucketLow(int i) {
  if (i < static_cast<int>(kExactLimit)) return static_cast<uint64_t>(i);
  return uint64_t{1} << (kExactBits + (i - static_cast<int>(kExactLimit)));
}

void LogHistogram::Add(uint64_t value, uint64_t count) {
  if (count == 0) return;
  buckets_[static_cast<size_t>(BucketIndex(value))] += count;
  count_ += count;
  sum_ += value * count;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

double LogHistogram::Mean() const {
  return count_ == 0
             ? 0.0
             : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t LogHistogram::Quantile(double q) const {
  return Estimate(q, /*interpolate=*/false);
}

uint64_t LogHistogram::QuantileInterp(double q) const {
  return Estimate(q, /*interpolate=*/true);
}

uint64_t LogHistogram::Estimate(double q, bool interpolate) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the order statistic we estimate (1-based), matching
  // Histogram::Percentile: at least ceil(q * count) samples <= the answer.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  // The extreme order statistics are tracked exactly; answering them from
  // min_/max_ beats any bucket representative (p0 = min, p100 = max).
  if (rank == 1) return min_;
  if (rank == count_) return max_;
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (i < static_cast<int>(kExactLimit)) return static_cast<uint64_t>(i);
    // Power-of-two buckets span [lo, 2*lo). Quantile answers the midpoint.
    // QuantileInterp places the target rank linearly within the bucket by
    // its offset among the bucket's samples: offset 1 of k maps near lo,
    // offset k near the top (2*lo - 1), and a single sample at the
    // midpoint. Either is clamped to the observed extremes so saturated
    // tails (every sample in one bucket) report real values.
    uint64_t lo = BucketLow(i);
    uint64_t v = lo + lo / 2;
    if (interpolate && in_bucket > 1) {
      double frac = static_cast<double>(rank - cum - 1) /
                    static_cast<double>(in_bucket - 1);
      v = lo + static_cast<uint64_t>(frac * static_cast<double>(lo - 1) + 0.5);
    }
    if (v < min_) v = min_;
    if (v > max_) v = max_;
    return v;
  }
  return max();  // unreachable: cum reaches count_ >= rank
}

bool LogHistogram::operator==(const LogHistogram& other) const {
  return buckets_ == other.buckets_ && count_ == other.count_ &&
         sum_ == other.sum_ && min() == other.min() && max() == other.max();
}

}  // namespace obs
}  // namespace baton
