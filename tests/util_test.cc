// Unit tests for util: rng, zipf, histogram, running stats, table printer,
// JSON escaping, status/result.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/histogram.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/zipf.h"

namespace baton {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(17);
  double sum = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, Mix64IsStable) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
}

// ---------- Zipf ----------

TEST(Zipf, RanksWithinBounds) {
  Rng rng(29);
  ZipfGenerator zipf(1000, 1.0);
  for (int i = 0; i < 5000; ++i) {
    uint64_t r = zipf.Sample(&rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 1000u);
  }
}

TEST(Zipf, SingleElementDomain) {
  Rng rng(31);
  ZipfGenerator zipf(1, 1.0);
  EXPECT_EQ(zipf.Sample(&rng), 1u);
}

TEST(Zipf, RankOneIsMostPopular) {
  Rng rng(37);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, Theta1MatchesHarmonicLaw) {
  // P(rank=k) ~ 1/k for theta=1: count(1)/count(4) should be ~4.
  Rng rng(41);
  ZipfGenerator zipf(1000, 1.0);
  std::vector<int> counts(1001, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Sample(&rng)];
  double ratio = static_cast<double>(counts[1]) / counts[4];
  EXPECT_NEAR(ratio, 4.0, 1.0);
}

TEST(Zipf, LargerThetaIsMoreSkewed) {
  Rng rng(43);
  ZipfGenerator mild(1000, 0.5), heavy(1000, 1.5);
  int mild_top = 0, heavy_top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.Sample(&rng) <= 10) ++mild_top;
    if (heavy.Sample(&rng) <= 10) ++heavy_top;
  }
  EXPECT_GT(heavy_top, mild_top);
}

TEST(Zipf, HugeDomainSamplesInBounds) {
  Rng rng(47);
  ZipfGenerator zipf(1ull << 40, 1.0);
  for (int i = 0; i < 1000; ++i) {
    uint64_t r = zipf.Sample(&rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 1ull << 40);
  }
}

// ---------- Histogram ----------

TEST(Histogram, BasicStats) {
  Histogram h;
  h.Add(1, 3);
  h.Add(5);
  h.Add(10);
  EXPECT_EQ(h.total_count(), 5u);
  EXPECT_DOUBLE_EQ(h.Mean(), (3 * 1 + 5 + 10) / 5.0);
  using Buckets = std::vector<std::pair<int64_t, uint64_t>>;
  EXPECT_EQ(h.Buckets(), (Buckets{{1, 3}, {5, 1}, {10, 1}}));
}

TEST(Histogram, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.Percentile(0.5), 50);
  EXPECT_EQ(h.Percentile(0.99), 99);
  EXPECT_EQ(h.Percentile(1.0), 100);
  // The rank is ceil(q * count): over 1..5 the median is 3, not 2.
  Histogram five;
  for (int i = 1; i <= 5; ++i) five.Add(i);
  EXPECT_EQ(five.Percentile(0.5), 3);
  EXPECT_EQ(five.Percentile(0.99), 5);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.Add(1, 2);
  b.Add(1, 3);
  b.Add(2);
  a.Merge(b);
  using Buckets = std::vector<std::pair<int64_t, uint64_t>>;
  EXPECT_EQ(a.Buckets(), (Buckets{{1, 5}, {2, 1}}));
  EXPECT_EQ(a.total_count(), 6u);
}

// ---------- RunningStat ----------

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
}

// ---------- TablePrinter ----------

TEST(TablePrinter, TextAlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"1", "2"});
  std::string out = t.ToText();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find('\n'), std::string::npos);
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

// ---------- JsonEscape ----------

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("baton N=200 seed=0"), "baton N=200 seed=0");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(JsonEscape("\x01\x1f"), "\\u0001\\u001f");
}

// ---------- Status / Result ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::NotFound("key 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.ToString().find("key 7"), std::string::npos);
}

TEST(Result, HoldsValue) {
  Result<int> r(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(r.value_or(9), 5);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::Unavailable("down"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(9), 9);
}

}  // namespace
}  // namespace baton
