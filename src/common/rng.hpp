#pragma once
// Deterministic pseudo-random number generation for the whole system.
//
// Every stochastic component in Qonductor (load generator, noise trajectories,
// NSGA-II operators, calibration drift, ...) draws from an explicitly seeded
// Rng instance so that simulations and tests are reproducible bit-for-bit.
// The generator is xoshiro256** (public domain, Blackman & Vigna), seeded via
// splitmix64 so that small seed integers produce well-mixed state.

#include <cstdint>
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
  std::uint64_t operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential with rate lambda (mean 1/lambda).
  double exponential(double lambda);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

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

/// Seed of the stream keyed by (a, b) under `root`. A pure function, so
/// concurrent components each derive "the stream of X" (one task's
/// execution, one calibration generation) without sharing or advancing a
/// generator — the draws do not depend on which component ran first.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t a, std::uint64_t b = 0);

}  // namespace qon
