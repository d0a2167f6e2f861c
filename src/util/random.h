#ifndef THEMIS_UTIL_RANDOM_H_
#define THEMIS_UTIL_RANDOM_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.h"

namespace themis {

/// MT19937-64: the exact output sequence of std::mt19937_64 (the standard
/// fixes it, e.g. its 10000th output for the default seed), with a twist
/// that selects the matrix term by mask instead of branching on a random
/// bit, and a discard that skips whole blocks without tempering them.
/// Satisfies UniformRandomBitGenerator, so standard distributions and
/// algorithms draw from it exactly as from std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateSize = 312;
  static constexpr result_type default_seed = 5489u;

  explicit Mt19937_64(result_type seed = default_seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kStateSize) Twist();
    uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

  /// Advances the engine by z outputs.
  void discard(unsigned long long z);

 private:
  /// Regenerates all kStateSize words and restarts the output index.
  void Twist();

  std::array<uint64_t, kStateSize> state_;
  size_t next_ = kStateSize;  ///< the next word to temper; kStateSize: twist
};

/// Deterministic random source used across the library. All experiment
/// harnesses take an explicit seed so results are reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    THEMIS_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1), bitwise what
  /// std::uniform_real_distribution<double>(0, 1) draws from the same
  /// engine: one output converted by ToUnitDouble.
  double UniformDouble() { return ToUnitDouble(engine_()); }

  /// libstdc++'s generate_canonical<double, 53> of one 64-bit word: x
  /// rounded to nearest double, times 2^-64, clamped below 1. The
  /// conversion computes both of the compiler's u64 -> double paths (a
  /// signed convert; or halve with the low bit kept sticky, convert,
  /// double) and selects one by mask, so no branch on the random top bit.
  static double ToUnitDouble(uint64_t x) {
    const auto low = std::bit_cast<uint64_t>(
        static_cast<double>(static_cast<int64_t>(x)));
    const auto high = std::bit_cast<uint64_t>(
        static_cast<double>(static_cast<int64_t>((x >> 1) | (x & 1))) * 2.0);
    const uint64_t top = 0 - (x >> 63);
    const double r = std::bit_cast<double>((low & ~top) | (high & top));
    // Scaling by 2^-64 is exact; 0x1.fffffffffffffp-1 is the largest
    // double below 1.
    return std::min(r * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Normal draw.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Zipf-like draw over {0, .., n-1} with skew s via inverse-CDF on
  /// precomputed weights is expensive; this uses rejection-free sampling on
  /// harmonic weights computed on the fly for small n, so callers with large
  /// domains should precompute a Categorical instead.
  int64_t Zipf(int64_t n, double s);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights need not be normalized; they must be non-negative with a
  /// positive sum.
  size_t Categorical(const std::vector<double>& weights);

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Precomputed alias-free categorical sampler (cumulative distribution +
/// binary search). Suitable for repeated draws from a fixed distribution.
class CategoricalSampler {
 public:
  /// `weights` must be non-negative with positive sum.
  explicit CategoricalSampler(const std::vector<double>& weights);

  /// Draws one index.
  size_t Sample(Rng& rng) const;

  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights, back() == 1.0
};

}  // namespace themis

#endif  // THEMIS_UTIL_RANDOM_H_
