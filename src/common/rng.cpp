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

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

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
