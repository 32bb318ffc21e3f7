#pragma once
// Deterministic pseudo-random number generation for the whole system.
//
// Every stochastic component in Qonductor (load generator, noise trajectories,
// NSGA-II operators, calibration drift, ...) draws from an explicitly seeded
// Rng instance so that simulations and tests are reproducible bit-for-bit.
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded via
// splitmix64 so that small seed integers produce well-mixed state.

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace qon {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions, but the member helpers below are preferred
/// as they are portable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed. Two Rngs with equal seeds
  /// produce identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// uniform() redrawn while it is <= 1e-300, i.e. while it is 0: a uniform
  /// double in (0, 1), the draw exponential() takes its logarithm of.
  double uniform_positive() {
    std::uint64_t k;
    do {
      k = (*this)() >> 11;
    } while (k == 0);
    return static_cast<double>(k) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda) {
    if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda must be > 0");
    return exponential_quantile(uniform_positive(), lambda);
  }

  /// The exponential variate exponential() returns for the draw u.
  static double exponential_quantile(double u, double lambda) { return -std::log(u) / lambda; }

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// The integer threshold t for which bernoulli_below(t) returns what
  /// bernoulli(p) would for every draw: with k = raw >> 11, uniform() is
  /// k * 2^-53, which is below p exactly when k < ceil(p * 2^53). A NaN or
  /// non-positive p gives 0 (never true), p >= 1 gives 2^53 (always true).
  static std::uint64_t bernoulli_threshold(double p) {
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
  }

  /// One Bernoulli trial against a threshold from bernoulli_threshold(),
  /// for loops whose probability does not change. Consumes one draw.
  bool bernoulli_below(std::uint64_t threshold) { return ((*this)() >> 11) < threshold; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each parallel
  /// worker / simulation entity its own stream.
  Rng split();

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Rng::uniform_int(lo, hi) with its span and rejection limit computed
/// once, for loops that draw many times from one range: the same draws and
/// the same results, with one division per draw instead of two.
class UniformInt {
 public:
  /// Requires lo <= hi.
  UniformInt(std::int64_t lo, std::int64_t hi)
      : lo_(lo), span_(static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
    // Rejection sampling to avoid modulo bias; span 0 is the full 64-bit range.
    limit_ = span_ == 0 ? 0 : (~0ULL) - (~0ULL) % span_;
  }

  std::int64_t operator()(Rng& rng) const {
    if (span_ == 0) return static_cast<std::int64_t>(rng());
    std::uint64_t r;
    do {
      r = rng();
    } while (r >= limit_);
    // Unsigned, so that lo + offset wraps into range instead of overflowing.
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo_) + r % span_);
  }

 private:
  std::int64_t lo_;
  std::uint64_t span_;
  std::uint64_t limit_;
};

inline std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return UniformInt(lo, hi)(*this);
}

/// Seed of the stream keyed by (a, b) under `root`. A pure function, so
/// concurrent components each derive "the stream of X" (one task's
/// execution, one calibration generation) without sharing or advancing a
/// generator — the draws do not depend on which component ran first.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t a, std::uint64_t b = 0);

}  // namespace qon
