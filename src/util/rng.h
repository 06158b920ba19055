// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through Rng instances seeded explicitly,
// so every experiment and test is reproducible from its printed seed.
// The generator is xoshiro256**, seeded via SplitMix64 (the recommended
// seeding procedure from the xoshiro authors).
#ifndef BATON_UTIL_RNG_H_
#define BATON_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace baton {

/// SplitMix64 step; also useful as a cheap 64-bit mixing function.
uint64_t SplitMix64(uint64_t* state);

/// Stateless 64-bit finalizer (same avalanche core as SplitMix64).
uint64_t Mix64(uint64_t x);

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Raw 64 random bits.
  uint64_t Next();

  /// Uniform integer in [0, bound) with Lemire's unbiased method.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial.
  bool NextBool(double p_true);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Pick a uniformly random element (container must be non-empty).
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    BATON_CHECK(!v.empty());
    return v[NextBelow(v.size())];
  }

 private:
  uint64_t s_[4];
};

}  // namespace baton

#endif  // BATON_UTIL_RNG_H_
