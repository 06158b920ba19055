// Integer-valued histogram with exact small-value buckets; used for message
// counts, hop counts and restructuring shift sizes (paper Fig. 8(h)).
#ifndef BATON_UTIL_HISTOGRAM_H_
#define BATON_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace baton {

class Histogram {
 public:
  void Add(int64_t value, uint64_t count = 1);
  void Merge(const Histogram& other);

  uint64_t total_count() const { return total_count_; }
  double Mean() const;
  /// Value v such that at least q of the mass is <= v; q in [0, 1].
  int64_t Percentile(double q) const;
  /// (value, count) pairs in increasing value order.
  std::vector<std::pair<int64_t, uint64_t>> Buckets() const;

  /// Multi-line "value count fraction" rendering, for bench output.
  std::string ToString(int max_rows = 32) const;

 private:
  std::map<int64_t, uint64_t> buckets_;
  uint64_t total_count_ = 0;
  int64_t sum_ = 0;
};

}  // namespace baton

#endif  // BATON_UTIL_HISTOGRAM_H_
