#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace qon {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t r;
  do {
    r = (*this)();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double lambda) {
  if (lambda <= 0.0) throw std::invalid_argument("Rng::exponential: lambda must be > 0");
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Rng::poisson: mean must be >= 0");
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("Rng::weighted_index: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("Rng::weighted_index: all weights zero");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() { return Rng((*this)()); }

std::uint64_t derive_seed(std::uint64_t root, std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = root;
  x = splitmix64(x) ^ a;
  x = splitmix64(x) ^ b;
  return splitmix64(x);
}

}  // namespace qon
