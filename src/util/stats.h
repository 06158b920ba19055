// Running mean accumulator for experiment series.
#ifndef BATON_UTIL_STATS_H_
#define BATON_UTIL_STATS_H_

#include <cstdint>

namespace baton {

class RunningStat {
 public:
  void Add(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
  }

  double mean() const { return n_ == 0 ? 0.0 : mean_; }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace baton

#endif  // BATON_UTIL_STATS_H_
