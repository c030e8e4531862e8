#ifndef GRALMATCH_COMMON_RNG_H_
#define GRALMATCH_COMMON_RNG_H_

/// \file rng.h
/// Deterministic pseudo-random number generation. Every stochastic component
/// in the library (data generation, pair sampling, weight init, shuffling)
/// takes an explicit Rng so that experiments are reproducible from a seed.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gralmatch {

/// \brief xoshiro256** generator seeded via SplitMix64.
///
/// Fast, high-quality, and deterministic across platforms (no reliance on
/// std::mt19937 distribution implementations, whose outputs are not
/// standardized for e.g. std::uniform_int_distribution).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seed the generator deterministically.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(Uniform(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Pick a uniformly random element. Requires non-empty v.
  template <typename T>
  const T& Choice(const std::vector<T>& v) {
    return v[Uniform(v.size())];
  }

  /// Sample an index from unnormalized non-negative weights.
  /// Returns weights.size()-1 if all weights are zero.
  size_t WeightedChoice(const std::vector<double>& weights);

  /// Derive an independent child generator (for parallel determinism).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_RNG_H_
