// Unit tests for the common substrate: RNG, statistics, tables, logging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace qon {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 50000;
  double mean = 0.0;
  double m2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    mean += x;
    m2 += x * x;
  }
  mean /= n;
  m2 /= n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(m2 - mean * mean, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (double lambda : {0.5, 4.0, 30.0, 100.0}) {
    double acc = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) acc += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(acc / n, lambda, lambda * 0.1 + 0.15) << "lambda=" << lambda;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  const double lambda = 2.5;
  double acc = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(lambda);
  EXPECT_NEAR(acc / n, 1.0 / lambda, 0.02);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> hits(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++hits[rng.weighted_index(w)];
  EXPECT_EQ(hits[2], 0);
  EXPECT_NEAR(hits[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(hits[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  Rng rng(29);
  std::vector<double> zero = {0.0, 0.0};
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.split();
  // Child stream should not equal the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ThresholdBernoulliMatchesUniformCompare) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {0.0, 1e-300, 1.0 / 500.0, 0.5, 1.0, 2.0, nan,
                         std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0), 0x1.0p-53}) {
    Rng compare(77);
    Rng threshold(77);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(threshold.bernoulli_below(t), compare.uniform() < p) << "p " << p << ", draw " << i;
    }
    EXPECT_EQ(threshold(), compare()) << "p " << p;  // same final state
  }
  // At the grid points k * 2^-53 the draw k - 1 is below p and the draw k
  // is not; just above them the draw k is below p too.
  for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{12345}, (std::uint64_t{1} << 52)}) {
    const double p = static_cast<double>(k) * 0x1.0p-53;
    EXPECT_EQ(Rng::bernoulli_threshold(p), k);
    EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(p, 1.0)), k + 1);
  }
}

// The original per-call uniform_int: the span and rejection limit are
// computed on every draw. Unsigned arithmetic, so wide ranges do not
// overflow.
std::int64_t reference_uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(rng());
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t r;
  do {
    r = rng();
  } while (r >= limit);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r % span);
}

TEST(Rng, HoistedUniformIntMatchesUniformInt) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0}, {0, 7}, {-5, 5}, {0, 63}, {3, 1000003},
      // span 2^62 + 1: about three quarters of the raw draws are rejected
      {0, std::int64_t{1} << 62},
      {-big - 1, big}};  // the full 64-bit range
  for (const auto& [lo, hi] : ranges) {
    Rng reference(91);
    Rng member(91);
    Rng hoisted(91);
    const UniformInt draw(lo, hi);
    for (int i = 0; i < 5000; ++i) {
      const std::int64_t want = reference_uniform_int(reference, lo, hi);
      ASSERT_EQ(member.uniform_int(lo, hi), want) << "[" << lo << ", " << hi << "], draw " << i;
      ASSERT_EQ(draw(hoisted), want) << "[" << lo << ", " << hi << "], draw " << i;
    }
    const std::uint64_t next = reference();
    EXPECT_EQ(member(), next);  // same final state
    EXPECT_EQ(hoisted(), next);
  }
  EXPECT_THROW(UniformInt(3, 2), std::invalid_argument);
}

TEST(Rng, DerivedSeedsArePureAndKeyed) {
  EXPECT_EQ(derive_seed(7, 1, 2), derive_seed(7, 1, 2));
  const std::set<std::uint64_t> seeds = {derive_seed(7, 1, 2), derive_seed(7, 2, 1),
                                         derive_seed(7, 1, 3), derive_seed(8, 1, 2),
                                         derive_seed(7, 1)};
  EXPECT_EQ(seeds.size(), 5u);  // every key component moves the seed
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyInputs) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(min_of({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, PercentileRejectsOutOfRange) {
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, EmpiricalCdfMonotone) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].probability, cdf[i].probability);
  }
}

TEST(Stats, CdfAtThreshold) {
  const std::vector<double> xs = {0.05, 0.2, 0.4, 0.9};
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.1), 0.25);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.0), 0.0);
}

TEST(Stats, HistogramClampsOutliers) {
  Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_center(0), 1.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(41);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_of(xs));
}

TEST(Stats, TimeWeightedAverage) {
  TimeWeightedAverage twa;
  twa.record(0.0, 10.0);   // value 10 from t=0
  twa.record(1.0, 20.0);   // value 10 held for 1s, then 20
  twa.record(3.0, 0.0);    // value 20 held for 2s
  // average = (10*1 + 20*2) / 3
  EXPECT_NEAR(twa.average(), 50.0 / 3.0, 1e-12);
}

TEST(Stats, TimeWeightedAverageRejectsBackwardsTime) {
  TimeWeightedAverage twa;
  twa.record(5.0, 1.0);
  EXPECT_THROW(twa.record(4.0, 1.0), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream oss;
  t.print(oss, "demo");
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

TEST(LogRateLimiter, PassesOneInEveryAndReportsSuppressed) {
  LogRateLimiter limiter(100);
  std::uint64_t suppressed = 123;
  EXPECT_TRUE(limiter.allow(&suppressed));
  EXPECT_EQ(suppressed, 0u);  // nothing swallowed before the first emission

  // Calls 2..100 are suppressed; call 101 passes and reports the 99 skips.
  std::uint64_t blocked = 0;
  for (int i = 0; i < 99; ++i) {
    if (!limiter.allow()) ++blocked;
  }
  EXPECT_EQ(blocked, 99u);
  EXPECT_TRUE(limiter.allow(&suppressed));
  EXPECT_EQ(suppressed, 99u);
  EXPECT_EQ(limiter.total(), 101u);
}

TEST(LogRateLimiter, EveryOneLetsEverythingThroughAndZeroIsClamped) {
  LogRateLimiter always(1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(always.allow());
  LogRateLimiter clamped(0);  // degenerate config must not divide by zero
  EXPECT_TRUE(clamped.allow());
  EXPECT_TRUE(clamped.allow());
}

TEST(LogRateLimiter, IsWaitFreeUnderConcurrentCallers) {
  LogRateLimiter limiter(10);
  std::atomic<std::uint64_t> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        if (limiter.allow()) allowed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // 1000 calls at 1-in-10: exactly 100 pass, regardless of interleaving.
  EXPECT_EQ(limiter.total(), 1000u);
  EXPECT_EQ(allowed.load(), 100u);
}

}  // namespace
}  // namespace qon
