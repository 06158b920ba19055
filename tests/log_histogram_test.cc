// Correctness tests for obs::LogHistogram: randomized differential of the
// log-bucket quantile estimate against a sorted-vector ground truth, merge
// associativity / commutativity, and the empty-histogram edge cases the
// zero-op replay aggregates rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/log_histogram.h"
#include "util/rng.h"

namespace baton {
namespace {

using obs::LogHistogram;

uint64_t TrueQuantile(std::vector<uint64_t> sorted, double q) {
  // Same rank convention as LogHistogram::Quantile: the smallest value with
  // at least ceil(q * count) samples <= it.
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  auto rank = static_cast<size_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

TEST(LogHistogram, EmptyReadsAsZeroEverywhere) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

TEST(LogHistogram, SingleValue) {
  LogHistogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 42u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 42u) << "q=" << q;
  }
}

TEST(LogHistogram, ExactBelowTheUnitBucketLimit) {
  // Every value below kExactLimit has its own bucket, so quantiles there
  // must be EXACT, not approximate.
  LogHistogram h;
  std::vector<uint64_t> vals;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBelow(LogHistogram::kExactLimit);
    vals.push_back(v);
    h.Add(v);
  }
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), TrueQuantile(vals, q)) << "q=" << q;
  }
}

TEST(LogHistogram, RandomizedDifferentialAgainstSortedVector) {
  // Mixed magnitudes: small exact values, mid-range, and huge 2^k-bucket
  // values. The estimate must land in the same power-of-two bucket as the
  // true order statistic: exact below 128, within a factor of 2 above, and
  // always clamped into [min, max].
  Rng rng(20260808);
  for (int trial = 0; trial < 50; ++trial) {
    LogHistogram h;
    std::vector<uint64_t> vals;
    size_t n = 1 + rng.NextBelow(400);
    for (size_t i = 0; i < n; ++i) {
      int shift = static_cast<int>(rng.NextBelow(50));
      uint64_t v = rng.NextBelow(uint64_t{1} << shift);
      vals.push_back(v);
      h.Add(v);
    }
    EXPECT_EQ(h.count(), vals.size());
    for (double q : {0.0, 0.05, 0.5, 0.9, 0.99, 1.0}) {
      uint64_t truth = TrueQuantile(vals, q);
      uint64_t est = h.Quantile(q);
      EXPECT_GE(est, h.min());
      EXPECT_LE(est, h.max());
      if (truth < LogHistogram::kExactLimit) {
        EXPECT_EQ(est, truth) << "trial=" << trial << " q=" << q;
      } else {
        // Same bucket: est in [truth/2, 2*truth] is implied by the shared
        // power-of-two bucket (and clamping only tightens it).
        EXPECT_GE(est, truth / 2) << "trial=" << trial << " q=" << q;
        EXPECT_LE(est, truth * 2) << "trial=" << trial << " q=" << q;
      }
    }
  }
}

TEST(LogHistogram, WeightedAddMatchesRepeatedAdd) {
  LogHistogram a, b;
  a.Add(17, 1000);
  a.Add(100000, 3);
  for (int i = 0; i < 1000; ++i) b.Add(17);
  for (int i = 0; i < 3; ++i) b.Add(100000);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count(), 1003u);
  EXPECT_EQ(a.sum(), 17u * 1000 + 100000u * 3);
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(99);
  LogHistogram parts[3];
  LogHistogram all;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 200; ++i) {
      uint64_t v = rng.NextBelow(uint64_t{1} << rng.NextBelow(40));
      parts[p].Add(v);
      all.Add(v);
    }
  }
  // (a + b) + c
  LogHistogram left = parts[0];
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  // a + (b + c)
  LogHistogram bc = parts[1];
  bc.Merge(parts[2]);
  LogHistogram right = parts[0];
  right.Merge(bc);
  // c + b + a
  LogHistogram rev = parts[2];
  rev.Merge(parts[1]);
  rev.Merge(parts[0]);
  EXPECT_EQ(left, right);
  EXPECT_EQ(left, rev);
  // Merging per-part histograms is indistinguishable from one histogram
  // that saw every sample -- the cross-seed/cross-task aggregation contract.
  EXPECT_EQ(left, all);
  EXPECT_EQ(left.count(), 600u);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(LogHistogram, MergeWithEmptyIsIdentity) {
  LogHistogram h, empty;
  h.Add(5);
  h.Add(1u << 20);
  LogHistogram copy = h;
  h.Merge(empty);
  EXPECT_EQ(h, copy);
  empty.Merge(h);
  EXPECT_EQ(empty, h);
}

TEST(LogHistogram, BucketEdges) {
  // Unit buckets up to the limit, then one bucket per power of two; the
  // last bucket absorbs the top of the u64 range.
  EXPECT_EQ(LogHistogram::BucketLow(0), 0u);
  EXPECT_EQ(LogHistogram::BucketLow(127), 127u);
  EXPECT_EQ(LogHistogram::BucketLow(128), 128u);
  EXPECT_EQ(LogHistogram::BucketLow(129), 256u);
  LogHistogram h;
  h.Add(UINT64_MAX);
  h.Add(uint64_t{1} << 63);
  EXPECT_EQ(h.bucket_count(LogHistogram::kNumBuckets - 1), 2u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_EQ(h.Quantile(1.0), UINT64_MAX);  // clamped to observed max
}

}  // namespace
}  // namespace baton
