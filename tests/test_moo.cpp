// Tests for the multi-objective optimization engine: dominance, fast
// non-dominated sort, crowding distance, NSGA-II convergence on a known
// bi-objective problem, and pseudo-weight MCDM selection.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "moo/mcdm.hpp"
#include "moo/nsga2.hpp"
#include "moo/problem.hpp"

namespace qon::moo {
namespace {

TEST(Dominance, StrictAndIncomparable) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}));  // equal: not strict
}

TEST(Dominance, NonDominatedIndices) {
  const std::vector<std::vector<double>> objs = {
      {1.0, 5.0}, {2.0, 3.0}, {3.0, 4.0}, {4.0, 1.0}};
  const auto front = non_dominated_indices(objs);
  // {3,4} is dominated by {2,3}; the rest are mutually incomparable.
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Sorting, FastNonDominatedSortRanks) {
  // A total-order chain: each point is dominated by everything better, so
  // the fronts peel off one at a time: 1.0 < 1.5 < 2.0 < 3.0.
  const std::vector<std::vector<double>> objs = {
      {1.0, 1.0},  // rank 0
      {2.0, 2.0},  // rank 2
      {3.0, 3.0},  // rank 3
      {1.5, 1.5},  // rank 1
  };
  const auto ranks = fast_non_dominated_sort(objs);
  EXPECT_EQ(ranks[0], 0u);
  EXPECT_EQ(ranks[1], 2u);
  EXPECT_EQ(ranks[2], 3u);
  EXPECT_EQ(ranks[3], 1u);

  // Two incomparable points share rank 0.
  const auto mixed = fast_non_dominated_sort({{1.0, 5.0}, {5.0, 1.0}, {6.0, 6.0}});
  EXPECT_EQ(mixed[0], 0u);
  EXPECT_EQ(mixed[1], 0u);
  EXPECT_EQ(mixed[2], 1u);
}

// Test-local reference: peel the non-dominated set of the remaining points
// until none remain. Points on a dominance cycle (only possible with NaN
// objectives) are never peeled and keep rank 0, as in Deb's algorithm.
std::vector<std::size_t> peeling_ranks(const std::vector<std::vector<double>>& objs) {
  std::vector<std::size_t> rank(objs.size(), 0);
  std::vector<bool> peeled(objs.size(), false);
  for (std::size_t level = 0;; ++level) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < objs.size(); ++i) {
      if (peeled[i]) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < objs.size() && !dominated; ++j) {
        dominated = j != i && !peeled[j] && dominates(objs[j], objs[i]);
      }
      if (!dominated) front.push_back(i);
    }
    if (front.empty()) return rank;
    for (const std::size_t i : front) {
      rank[i] = level;
      peeled[i] = true;
    }
  }
}

// Points on a small integer grid, so duplicates and equal first or second
// objectives are common. `m` objectives per point.
std::vector<std::vector<double>> grid_points(Rng& rng, std::size_t m) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 90));
  const std::int64_t side = rng.uniform_int(1, 7);
  std::vector<std::vector<double>> objs(n, std::vector<double>(m));
  for (auto& point : objs) {
    for (auto& v : point) v = 0.5 * static_cast<double>(rng.uniform_int(-side, side));
  }
  return objs;
}

TEST(Sorting, TwoObjectiveSweepMatchesPeelingOnTieHeavyGrids) {
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng(seed);
    const auto objs = grid_points(rng, 2);
    ASSERT_EQ(fast_non_dominated_sort(objs), peeling_ranks(objs)) << "seed " << seed;
  }
}

TEST(Sorting, EmptyInputHasNoRanks) {
  EXPECT_TRUE(fast_non_dominated_sort({}).empty());
}

TEST(Sorting, ThreeObjectiveAndNonFiniteInputsMatchPeeling) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {inf, -inf, nan};
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto three = grid_points(rng, 3);
    ASSERT_EQ(fast_non_dominated_sort(three), peeling_ranks(three)) << "seed " << seed;

    auto two = grid_points(rng, 2);
    for (auto& point : two) {
      for (auto& v : point) {
        if (rng.bernoulli(0.15)) v = specials[rng.uniform_int(0, 2)];
      }
    }
    ASSERT_EQ(fast_non_dominated_sort(two), peeling_ranks(two)) << "seed " << seed;
  }
}

TEST(Sorting, CrowdingDistanceBoundariesInfinite) {
  const std::vector<std::vector<double>> objs = {
      {0.0, 4.0}, {1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}, {4.0, 0.0}};
  const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
  const auto dist = crowding_distance(objs, front);
  EXPECT_TRUE(std::isinf(dist[0]));
  EXPECT_TRUE(std::isinf(dist[4]));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GT(dist[i], 0.0);
    EXPECT_FALSE(std::isinf(dist[i]));
  }
}

// A classic discretized bi-objective: minimize (x^2, (x - K)^2) for integer
// x in [-50, 150] with K = 100. The Pareto set is x in [0, K].
class TwoParabolas : public IntegerProblem {
 public:
  std::size_t num_variables() const override { return 1; }
  int lower_bound(std::size_t) const override { return -50; }
  int upper_bound(std::size_t) const override { return 150; }
  std::size_t num_objectives() const override { return 2; }
  void evaluate(const std::vector<int>& genome, std::vector<double>& objectives) const override {
    const double x = genome[0];
    objectives.resize(2);
    objectives[0] = x * x;
    objectives[1] = (x - 100.0) * (x - 100.0);
  }
};

TEST(Nsga2, FindsParetoSetOfTwoParabolas) {
  TwoParabolas problem;
  Nsga2Config config;
  config.population_size = 60;
  config.max_generations = 80;
  config.seed = 5;
  const auto result = nsga2(problem, config);
  ASSERT_FALSE(result.front.empty());
  // Every front member must lie in the true Pareto set [0, 100].
  for (const auto& sol : result.front) {
    EXPECT_GE(sol.genome[0], 0);
    EXPECT_LE(sol.genome[0], 100);
  }
  // The front should cover a substantial spread of the set.
  int lo = 200;
  int hi = -200;
  for (const auto& sol : result.front) {
    lo = std::min(lo, sol.genome[0]);
    hi = std::max(hi, sol.genome[0]);
  }
  EXPECT_LT(lo, 25);
  EXPECT_GT(hi, 75);
}

TEST(Nsga2, FrontIsMutuallyNonDominated) {
  TwoParabolas problem;
  Nsga2Config config;
  config.seed = 11;
  const auto result = nsga2(problem, config);
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    for (std::size_t j = 0; j < result.front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(result.front[i].objectives, result.front[j].objectives))
          << "front member " << i << " dominates " << j;
    }
  }
}

TEST(Nsga2, RespectsEvaluationBudget) {
  TwoParabolas problem;
  Nsga2Config config;
  config.population_size = 20;
  config.max_generations = 1000;
  config.max_evaluations = 200;
  config.tolerance = 0.0;  // disable tolerance termination
  const auto result = nsga2(problem, config);
  EXPECT_LE(result.evaluations, 240u);  // budget + at most one extra batch
}

TEST(Nsga2, ToleranceTerminationStopsEarly) {
  TwoParabolas problem;
  Nsga2Config config;
  config.population_size = 40;
  config.max_generations = 500;
  config.tolerance = 0.05;  // generous: should converge well before 500
  config.tolerance_window = 5;
  config.seed = 3;
  const auto result = nsga2(problem, config);
  EXPECT_TRUE(result.converged_by_tolerance);
  EXPECT_LT(result.generations, 500u);
}

TEST(Nsga2, DeterministicForFixedSeed) {
  TwoParabolas problem;
  Nsga2Config config;
  config.seed = 21;
  const auto a = nsga2(problem, config);
  const auto b = nsga2(problem, config);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].genome, b.front[i].genome);
  }
}

TEST(Nsga2, ValidatesConfig) {
  TwoParabolas problem;
  Nsga2Config config;
  config.population_size = 2;
  EXPECT_THROW(nsga2(problem, config), std::invalid_argument);

  // Every other invalid field is rejected up front too, before any
  // generation runs.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [&problem](auto mutate) {
    Nsga2Config bad;
    mutate(bad);
    return [&problem, bad] { nsga2(problem, bad); };
  };
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.exponential_lambda = 0.0; })(),
               std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.exponential_lambda = -3.0; })(),
               std::invalid_argument);
  EXPECT_THROW(rejects([&](Nsga2Config& c) { c.exponential_lambda = nan; })(),
               std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.mutation_eta = -2.0; })(), std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.mutation_eta = -0.5; })(), std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.crossover_prob = 1.5; })(), std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.crossover_prob = -0.1; })(), std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.mutation_prob_per_gene = 1.5; })(),
               std::invalid_argument);
  EXPECT_THROW(rejects([](Nsga2Config& c) { c.tolerance_window = 0; })(), std::invalid_argument);

  // The boundary values are valid.
  Nsga2Config edge;
  edge.max_generations = 3;
  edge.crossover_prob = 1.0;
  edge.mutation_prob_per_gene = 1.0;
  edge.mutation_eta = 0.0;
  edge.tolerance_window = 1;
  EXPECT_NO_THROW(nsga2(problem, edge));
}

// The textbook exponential crossover on one gene, as std::lround computes it.
std::pair<int, int> spread_formula(int a, int b, double u, double lambda) {
  const double beta = -std::log(u) / lambda;
  const double x = a;
  const double y = b;
  return {static_cast<int>(std::lround(0.5 * ((1.0 + beta) * x + (1.0 - beta) * y))),
          static_cast<int>(std::lround(0.5 * ((1.0 - beta) * x + (1.0 + beta) * y)))};
}

TEST(Nsga2, SpreadTableMatchesExponentialFormula) {
  for (const double lambda : {0.5, 3.0, 10.0}) {
    const CrossoverSpread spread(lambda, 15);
    // Draws on a grid, at both ends of (0, 1), and 1 to 4 ulp either side of
    // every threshold the table holds (T_0 = 1 included) and a few past it.
    std::vector<double> draws = {0x1.0p-53, 1e-12, 1e-6};
    for (int i = 0; i < 512; ++i) draws.push_back((i + 0.5) / 512.0);
    for (int d = 1; d <= 15; ++d) {
      const int even = d % 2 == 0 ? 1 : 0;
      for (int j = even; j <= 24; ++j) {  // rows stop after 16 thresholds
        const double t = std::exp(-lambda * static_cast<double>(2 * j - even) / d);
        if (t < 0x1.0p-54) break;
        double below = t;
        double above = t;
        for (int ulp = 1; ulp <= 4; ++ulp) {
          below = std::nextafter(below, 0.0);
          above = std::nextafter(above, 2.0);
          draws.push_back(below);
          if (above < 1.0) draws.push_back(above);
        }
        draws.push_back(t);
      }
    }
    for (int a = -7; a <= 8; ++a) {
      for (int b = -7; b <= 8; ++b) {
        for (const double u : draws) {
          if (!(u > 0.0 && u < 1.0)) continue;
          ASSERT_EQ(spread.children(a, b, u), spread_formula(a, b, u, lambda))
              << "lambda " << lambda << ", a " << a << ", b " << b << ", u " << u;
        }
      }
    }
    // Genes at and beyond the table's limits, and spans past its rows.
    const int big = spread.max_gene();
    const int extremes[] = {big,     big - 7, -big, -big + 3, big + 1, -big - 1,
                            1 << 30, -(1 << 30), std::numeric_limits<int>::max(),
                            std::numeric_limits<int>::min()};
    for (const int a : extremes) {
      for (const long long offset : {0LL, -1LL, 1LL, -4LL}) {
        const long long near = a + offset;
        if (near < std::numeric_limits<int>::min() || near > std::numeric_limits<int>::max()) {
          continue;
        }
        for (const int b : {static_cast<int>(near), 0, 17}) {
          for (const double u : draws) {
            if (!(u > 0.0 && u < 1.0)) continue;
            ASSERT_EQ(spread.children(a, b, u), spread_formula(a, b, u, lambda))
                << "lambda " << lambda << ", a " << a << ", b " << b << ", u " << u;
          }
        }
      }
    }
  }
}

// Raw draws that take `before` to `after` (two generators agree once their
// next four outputs do), searched up to `limit`; limit + 1 when not found.
std::size_t draws_between(Rng before, const Rng& after, std::size_t limit) {
  for (std::size_t k = 0; k <= limit; ++k) {
    Rng a = before;
    Rng b = after;
    bool same = true;
    for (int t = 0; t < 4 && same; ++t) same = a() == b();
    if (same) return k;
    before();
  }
  return limit + 1;
}

// n variables in [0, hi], scored by their sum (only the operators matter).
class Box : public IntegerProblem {
 public:
  Box(std::size_t n, int hi) : n_(n), hi_(hi) {}
  std::size_t num_variables() const override { return n_; }
  int lower_bound(std::size_t) const override { return 0; }
  int upper_bound(std::size_t) const override { return hi_; }
  std::size_t num_objectives() const override { return 2; }
  void evaluate(const std::vector<int>& g, std::vector<double>& o) const override {
    double sum = 0.0;
    for (const int x : g) sum += x;
    o = {sum, -sum};
  }

 private:
  std::size_t n_;
  int hi_;
};

// Pearson's statistic of observed counts against expected ones.
double chi_square(const std::vector<double>& observed, const std::vector<double>& expected) {
  double stat = 0.0;
  for (std::size_t k = 0; k < observed.size(); ++k) {
    stat += (observed[k] - expected[k]) * (observed[k] - expected[k]) / expected[k];
  }
  return stat;
}

TEST(Nsga2Operators, CrossoverDrawsOnlyForGenesThatDiffer) {
  const Box box(200, 7);
  Nsga2Config config;
  config.crossover_prob = 1.0;
  const Variation variation(box, config);
  Rng rng(53);
  std::vector<int> parent(200);
  for (auto& g : parent) g = static_cast<int>(rng.uniform_int(0, 7));
  std::vector<int> c1;
  std::vector<int> c2;
  TouchedGenes touched(200);

  // Identical parents: the children are copies and the Rng is untouched.
  Rng before = rng;
  variation.crossover(parent, parent, c1, c2, rng, touched);
  EXPECT_EQ(draws_between(before, rng, 0), 0u);
  EXPECT_EQ(c1, parent);
  EXPECT_EQ(c2, parent);
  EXPECT_TRUE(touched.genes().empty());

  // Parents that differ in one gene of the third word (genes 128-191): the
  // pair's crossover coin, one word of gene coins, and that gene's spread
  // draw when its coin comes up; no coin or draw for the agreeing genes,
  // which the children copy. Each of the word's 64 positions is crossed
  // Binomial(kTrials, 1/2) times: the sum of their squared z-scores must
  // stay below 104.7, the 0.999 quantile of chi-square(64), and the total
  // within 4.5 sigma. The seed is fixed, so the verdict is too.
  constexpr std::size_t kTrials = 256;
  std::vector<double> crossed(64, 0.0);
  for (std::size_t k = 0; k < 64; ++k) {
    const std::size_t gene = 128 + k;
    std::vector<int> other = parent;
    other[gene] = parent[gene] == 0 ? 7 : 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      touched.clear();
      before = rng;
      variation.crossover(parent, other, c1, c2, rng, touched);
      const std::size_t draws = draws_between(before, rng, 400);
      ASSERT_TRUE(draws == 2 || draws == 3) << "gene " << gene << ": " << draws << " draws";
      crossed[k] += static_cast<double>(draws - 2);
      for (std::size_t i = 0; i < parent.size(); ++i) {
        if (i == gene) continue;
        ASSERT_EQ(c1[i], parent[i]) << "gene " << i;
        ASSERT_EQ(c2[i], parent[i]) << "gene " << i;
      }
    }
  }
  const double n = kTrials;
  double stat = 0.0;
  double total = 0.0;
  for (const double c : crossed) {
    stat += (c - n / 2) * (c - n / 2) / (n / 4);
    total += c;
  }
  EXPECT_LT(stat, 104.7);
  const double all = 64.0 * n;
  EXPECT_LT(std::abs(total - all / 2), 4.5 * std::sqrt(all / 4));
}

TEST(Nsga2Operators, GapMutationMatchesBernoulli) {
  constexpr std::size_t kGenes = 50;
  constexpr std::size_t kGenomes = 20000;
  const Box box(kGenes, 1000);
  for (const double p : {1.0 / kGenes, 1.0}) {
    Nsga2Config config;
    config.mutation_prob_per_gene = p;
    const Variation variation(box, config);
    Rng rng(59);
    std::vector<int> genome(kGenes, 500);
    TouchedGenes touched(kGenes);
    std::vector<double> per_gene(kGenes, 0.0);
    std::vector<double> per_genome(6, 0.0);  // 0, 1, 2, 3, 4, >= 5 mutations
    for (std::size_t t = 0; t < kGenomes; ++t) {
      touched.clear();
      const Rng before = rng;
      variation.mutate(genome, rng, touched);
      const std::size_t m = touched.genes().size();
      // One gap per mutated gene plus the one that runs past the end, and
      // one polynomial u per mutated gene.
      if (t < 50) {
        EXPECT_EQ(draws_between(before, rng, 4 * kGenes), 2 * m + 1);
      }
      for (const std::size_t i : touched.genes()) per_gene[i] += 1.0;
      per_genome[std::min<std::size_t>(m, 5)] += 1.0;
    }
    if (p == 1.0) {
      // Every gene, every time: the Bernoulli(1) frequencies exactly.
      for (const double c : per_gene) EXPECT_EQ(c, static_cast<double>(kGenomes));
      EXPECT_EQ(per_genome[5], static_cast<double>(kGenomes));
      continue;
    }
    // Per gene: kGenes cells of kGenomes * p expected; below 85.35, the 0.999
    // quantile of chi-square(49).
    EXPECT_LT(chi_square(per_gene, std::vector<double>(kGenes, kGenomes * p)), 85.35);
    // Per genome: Binomial(kGenes, p) over 0-4 and >= 5 mutations; below
    // 20.52, the 0.999 quantile of chi-square(5).
    std::vector<double> expected(6, 0.0);
    double tail = 1.0;
    for (std::size_t k = 0; k < 5; ++k) {
      double pmf = std::pow(1.0 - p, static_cast<double>(kGenes - k)) * std::pow(p, k);
      for (std::size_t j = 0; j < k; ++j) {
        pmf *= static_cast<double>(kGenes - j) / static_cast<double>(j + 1);
      }
      expected[k] = kGenomes * pmf;
      tail -= pmf;
    }
    expected[5] = kGenomes * tail;
    EXPECT_LT(chi_square(per_genome, expected), 20.52);
  }
}

// Constrained problem: only even genes are feasible; repair_gene() enforces it.
class EvenOnly : public IntegerProblem {
 public:
  std::size_t num_variables() const override { return 3; }
  int lower_bound(std::size_t) const override { return 0; }
  int upper_bound(std::size_t) const override { return 10; }
  std::size_t num_objectives() const override { return 2; }
  void evaluate(const std::vector<int>& g, std::vector<double>& o) const override {
    o = {static_cast<double>(g[0] + g[1] + g[2]),
         30.0 - static_cast<double>(g[0] + g[1] + g[2])};
  }
  int repair_gene(std::size_t i, int x) const override {
    x = IntegerProblem::repair_gene(i, x);
    return x - x % 2;
  }
};

TEST(Nsga2, RepairHookIsHonored) {
  EvenOnly problem;
  Nsga2Config config;
  config.seed = 9;
  const auto result = nsga2(problem, config);
  for (const auto& sol : result.front) {
    for (int gene : sol.genome) EXPECT_EQ(gene % 2, 0);
  }
}

TEST(Mcdm, PseudoWeightsRowsSumToOne) {
  const std::vector<std::vector<double>> front = {
      {0.0, 10.0}, {5.0, 5.0}, {10.0, 0.0}};
  const auto weights = pseudo_weights(front);
  ASSERT_EQ(weights.size(), 3u);
  for (const auto& row : weights) {
    double sum = 0.0;
    for (double w : row) sum += w;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Mcdm, ExtremePreferencesPickExtremeSolutions) {
  // Objective 0 = JCT, objective 1 = error; both minimized.
  const std::vector<std::vector<double>> front = {
      {0.0, 10.0},  // best JCT, worst error
      {5.0, 5.0},
      {10.0, 0.0},  // worst JCT, best error
  };
  // All weight on objective 0 -> the solution best in objective 0.
  EXPECT_EQ(select_by_pseudo_weight(front, {1.0, 0.0}), 0u);
  EXPECT_EQ(select_by_pseudo_weight(front, {0.0, 1.0}), 2u);
  EXPECT_EQ(select_by_pseudo_weight(front, {0.5, 0.5}), 1u);
}

TEST(Mcdm, DegenerateFrontFallsBackToUniform) {
  const std::vector<std::vector<double>> front = {{3.0, 3.0}, {3.0, 3.0}};
  const auto weights = pseudo_weights(front);
  EXPECT_NEAR(weights[0][0], 0.5, 1e-12);
  EXPECT_NO_THROW(select_by_pseudo_weight(front, {0.5, 0.5}));
}

TEST(Mcdm, ValidatesInput) {
  EXPECT_THROW(select_by_pseudo_weight(std::vector<std::vector<double>>{}, {0.5, 0.5}),
               std::invalid_argument);
  const std::vector<std::vector<double>> front = {{1.0, 2.0}};
  EXPECT_THROW(select_by_pseudo_weight(front, {1.0}), std::invalid_argument);
}

TEST(Mcdm, SelectEachServesHeterogeneousPreferences) {
  const std::vector<std::vector<double>> front = {
      {0.0, 10.0},  // best JCT, worst error
      {5.0, 5.0},
      {10.0, 0.0},  // worst JCT, best error
  };
  // One shared pseudo-weight computation, one pick per preference — must
  // agree with the single-preference selector on every row.
  const auto picks = select_each_by_pseudo_weight(
      front, {{1.0, 0.0}, {0.5, 0.5}, {0.0, 1.0}});
  EXPECT_EQ(picks, (std::vector<std::size_t>{0u, 1u, 2u}));
  EXPECT_TRUE(select_each_by_pseudo_weight(front, {}).empty());
  EXPECT_THROW(select_each_by_pseudo_weight({}, {{0.5, 0.5}}), std::invalid_argument);
  EXPECT_THROW(select_each_by_pseudo_weight(front, {{1.0}}), std::invalid_argument);
}

// Seed sweep: the scheduler's core engine must behave across seeds.
class Nsga2SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Nsga2SeedSweep, ParetoMembersStayFeasible) {
  TwoParabolas problem;
  Nsga2Config config;
  config.seed = GetParam();
  config.max_generations = 40;
  const auto result = nsga2(problem, config);
  ASSERT_FALSE(result.front.empty());
  for (const auto& sol : result.front) {
    EXPECT_GE(sol.genome[0], problem.lower_bound(0));
    EXPECT_LE(sol.genome[0], problem.upper_bound(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Nsga2SeedSweep, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace qon::moo
