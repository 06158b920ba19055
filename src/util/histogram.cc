#include "util/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace baton {

void Histogram::Add(int64_t value, uint64_t count) {
  buckets_[value] += count;
  total_count_ += count;
  sum_ += value * static_cast<int64_t>(count);
}

void Histogram::Merge(const Histogram& other) {
  for (const auto& [v, c] : other.buckets_) buckets_[v] += c;
  total_count_ += other.total_count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  if (total_count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(total_count_);
}

int64_t Histogram::Percentile(double q) const {
  BATON_CHECK(!buckets_.empty());
  q = std::clamp(q, 0.0, 1.0);
  // The 1-based rank ceil(q * count), as obs::LogHistogram::Quantile uses.
  uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_count_)));
  uint64_t seen = 0;
  for (const auto& [v, c] : buckets_) {
    seen += c;
    if (seen >= target) return v;
  }
  return buckets_.rbegin()->first;
}

std::vector<std::pair<int64_t, uint64_t>> Histogram::Buckets() const {
  return {buckets_.begin(), buckets_.end()};
}

std::string Histogram::ToString(int max_rows) const {
  std::ostringstream out;
  int rows = 0;
  for (const auto& [v, c] : buckets_) {
    if (rows++ >= max_rows) {
      out << "  ... (" << (buckets_.size() - static_cast<size_t>(max_rows))
          << " more buckets)\n";
      break;
    }
    double frac = total_count_ == 0
                      ? 0.0
                      : static_cast<double>(c) / static_cast<double>(total_count_);
    out << "  " << v << "\t" << c << "\t" << frac << "\n";
  }
  return out.str();
}

}  // namespace baton
