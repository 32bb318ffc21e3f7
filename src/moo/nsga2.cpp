#include "moo/nsga2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace qon::moo {

namespace {

struct Individual {
  std::vector<int> genome;
  std::vector<double> objectives;
  std::size_t rank = 0;
  double crowding = 0.0;
};

// Buffers of the front sort and the crowding pass, reused across
// generations so that a generation allocates nothing once they have grown
// to the merged population's size.
struct SortScratch {
  std::vector<std::size_t> rank;
  std::vector<std::size_t> order;       ///< lexicographic / per-objective order
  std::vector<std::size_t> front_last;  ///< two-objective path: last member per front
  // General path (Deb's O(MN^2) peeling).
  std::vector<std::vector<std::size_t>> dominated_by;
  std::vector<std::size_t> domination_count;
  std::vector<std::size_t> current;
  std::vector<std::size_t> next;
  // Crowding pass: members grouped by rank, population order within a rank.
  std::vector<std::size_t> by_rank;
  std::vector<std::size_t> rank_begin;
  std::vector<double> distance;
};

// True when every point has exactly two objectives and all are finite: the
// precondition of the sweep in rank_two_objectives.
template <typename Row>
bool two_finite_objectives(std::size_t n, const Row& row) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<double>& p = row(i);
    if (p.size() != 2 || !std::isfinite(p[0]) || !std::isfinite(p[1])) return false;
  }
  return true;
}

// ENS-BS (Zhang et al. 2015) for two objectives. Points are visited in
// lexicographic order, so every dominator of a point is visited before it.
// Within a front, members arrive with non-decreasing f0 and non-increasing
// f1, so the last member dominates the point iff any member does. Being
// dominated by front k implies being dominated by every front below k, so
// the point's front is found by binary search. The ranks equal the peeling
// ranks of the general path.
template <typename Row>
void rank_two_objectives(std::size_t n, const Row& row, SortScratch& s) {
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), std::size_t{0});
  std::sort(s.order.begin(), s.order.end(), [&row](std::size_t a, std::size_t b) {
    const std::vector<double>& pa = row(a);
    const std::vector<double>& pb = row(b);
    return pa[0] < pb[0] || (pa[0] == pb[0] && pa[1] < pb[1]);
  });
  s.front_last.clear();
  for (const std::size_t p : s.order) {
    std::size_t lo = 0;
    std::size_t hi = s.front_last.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (dominates(row(s.front_last[mid]), row(p))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == s.front_last.size()) {
      s.front_last.push_back(p);
    } else {
      s.front_last[lo] = p;
    }
    s.rank[p] = lo;
  }
}

// Deb's fast non-dominated sort: O(MN^2) domination counts, then peeling.
// Returns false when some point was never peeled: NaN objectives can make
// dominance cyclic, and such points keep rank 0.
template <typename Row>
bool rank_general(std::size_t n, const Row& row, SortScratch& s) {
  if (s.dominated_by.size() < n) s.dominated_by.resize(n);
  for (std::size_t p = 0; p < n; ++p) s.dominated_by[p].clear();
  s.domination_count.assign(n, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(row(p), row(q))) {
        s.dominated_by[p].push_back(q);
      } else if (dominates(row(q), row(p))) {
        ++s.domination_count[p];
      }
    }
  }
  s.current.clear();
  for (std::size_t p = 0; p < n; ++p) {
    if (s.domination_count[p] == 0) {
      s.rank[p] = 0;
      s.current.push_back(p);
    }
  }
  std::size_t level = 0;
  std::size_t peeled = 0;
  while (!s.current.empty()) {
    peeled += s.current.size();
    s.next.clear();
    for (const std::size_t p : s.current) {
      for (const std::size_t q : s.dominated_by[p]) {
        if (--s.domination_count[q] == 0) {
          s.rank[q] = level + 1;
          s.next.push_back(q);
        }
      }
    }
    ++level;
    std::swap(s.current, s.next);
  }
  return peeled == n;
}

// Peeling ranks (0 = best front) of points 0..n-1 into s.rank; row(i) is
// point i's objective vector. Returns true when every point was peeled, so
// each point's rank is one more than its dominators' highest rank.
template <typename Row>
bool rank_fronts(std::size_t n, const Row& row, SortScratch& s) {
  s.rank.assign(n, 0);
  if (!two_finite_objectives(n, row)) return rank_general(n, row, s);
  rank_two_objectives(n, row, s);
  return true;
}

// Crowding distances of the k points front[0..k) (indices passed to row)
// into distance[0..k). Boundary points get +inf.
template <typename Row>
void crowding_into(const Row& row, const std::size_t* front, std::size_t k,
                   std::vector<std::size_t>& order, double* distance) {
  const double inf = std::numeric_limits<double>::infinity();
  std::fill(distance, distance + k, 0.0);
  if (k == 0) return;
  const std::size_t m_count = row(front[0]).size();
  order.resize(k);
  for (std::size_t m = 0; m < m_count; ++m) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return row(front[a])[m] < row(front[b])[m];
    });
    distance[order.front()] = inf;
    distance[order.back()] = inf;
    const double span = row(front[order.back()])[m] - row(front[order.front()])[m];
    if (span <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < k; ++i) {
      distance[order[i]] += (row(front[order[i + 1]])[m] - row(front[order[i - 1]])[m]) / span;
    }
  }
}

// Recomputes every front's crowding distances from the ranks stored on the
// individuals. Each front lists its members in population order.
void assign_crowding(std::span<Individual> pop, SortScratch& s) {
  std::size_t max_rank = 0;
  for (const auto& ind : pop) max_rank = std::max(max_rank, ind.rank);
  s.rank_begin.assign(max_rank + 2, 0);
  for (const auto& ind : pop) ++s.rank_begin[ind.rank + 1];
  std::partial_sum(s.rank_begin.begin(), s.rank_begin.end(), s.rank_begin.begin());
  s.by_rank.resize(pop.size());
  s.distance.resize(pop.size());
  // Counting-sort fill: rank_begin[r] walks up to rank r+1's start.
  for (std::size_t i = 0; i < pop.size(); ++i) s.by_rank[s.rank_begin[pop[i].rank]++] = i;
  const auto row = [pop](std::size_t i) -> const std::vector<double>& {
    return pop[i].objectives;
  };
  std::size_t begin = 0;
  for (std::size_t r = 0; r <= max_rank; ++r) {
    const std::size_t end = s.rank_begin[r];
    crowding_into(row, s.by_rank.data() + begin, end - begin, s.order, s.distance.data());
    for (std::size_t k = begin; k < end; ++k) pop[s.by_rank[k]].crowding = s.distance[k - begin];
    begin = end;
  }
}

// Ranks and crowding distances of `pop`; returns rank_fronts' verdict.
bool assign_ranks_and_crowding(std::span<Individual> pop, SortScratch& s) {
  const bool peeled = rank_fronts(
      pop.size(), [pop](std::size_t i) -> const std::vector<double>& { return pop[i].objectives; },
      s);
  for (std::size_t i = 0; i < pop.size(); ++i) pop[i].rank = s.rank[i];
  assign_crowding(pop, s);
  return peeled;
}

}  // namespace

std::vector<std::size_t> fast_non_dominated_sort(
    const std::vector<std::vector<double>>& objectives) {
  SortScratch s;
  rank_fronts(
      objectives.size(),
      [&objectives](std::size_t i) -> const std::vector<double>& { return objectives[i]; }, s);
  return std::move(s.rank);
}

std::vector<double> crowding_distance(const std::vector<std::vector<double>>& objectives,
                                      const std::vector<std::size_t>& front) {
  std::vector<double> distance(front.size(), 0.0);
  std::vector<std::size_t> order;
  crowding_into([&objectives](std::size_t i) -> const std::vector<double>& { return objectives[i]; },
                front.data(), front.size(), order, distance.data());
  return distance;
}

namespace {

// static_cast<int>(std::lround(x)) without the libm call: the nearest
// integer, halves away from zero, converted through long. Below 2^52 in
// magnitude the conversion truncates exactly and x minus its truncation is
// exact; larger and non-finite values take std::lround itself.
int round_half_away(double x) {
  if (!(std::abs(x) < 0x1.0p52)) return static_cast<int>(std::lround(x));
  long r = static_cast<long>(x);
  const double frac = x - static_cast<double>(r);
  if (frac >= 0.5) {
    ++r;
  } else if (frac <= -0.5) {
    --r;
  }
  return static_cast<int>(r);
}

constexpr double kBand = 1e-9;  // relative fallback band around each T_j
constexpr std::size_t kMaxRowBands = 16;
constexpr long long kMaxRows = 64;
constexpr std::uint64_t kOctaves = 53;  // u >= 2^-53 lies in one of 53 octaves

// The children when `at_or_above` thresholds of row |a - b| are >= u.
// Branch-free: with m = 0 for d >= 0 and -1 for d < 0, (x ^ m) - m is
// sgn(d) x, and a + b + sgn(d) [d odd] is even, so >> 1 halves it exactly.
std::pair<int, int> place(int a, int b, int at_or_above) {
  const int d = a - b;
  const int m = d >> 31;
  const int odd = d & 1;
  const int child1 = ((a + b + ((odd ^ m) - m)) >> 1) + (((at_or_above - odd) ^ m) - m);
  return {child1, a + b - child1};
}

}  // namespace

// The table is exact wherever the formula's floating-point error is smaller
// than the distance between the exact child position and the nearest
// rounding boundary. Outside the band, u differs from every T_j by a factor
// of at least 1 + 1e-9, so beta = -log(u) / lambda differs from its boundary
// value by more than ~1e-9 / lambda and the position by more than
// ~1e-9 |d| / (2 lambda). The formula's error (log, division, two products,
// one sum) is below 6 * 2^-53 (1 + beta) max(|a|, |b|), and on a row's
// reachable thresholds lambda * beta <= -log(2^-54) < 38. Both meet, with a
// 1.5x margin, when max(|a|, |b|) (lambda + 38) <= 5e5. For d = 0 the
// position a must stay within 0.5 of the result for every u >= 2^-53
// (beta <= 36.8 / lambda): max(|a|, |b|) (lambda + 38) <= 5e14 lambda.
CrossoverSpread::CrossoverSpread(double lambda, long long max_span) : lambda_(lambda) {
  if (!(lambda > 0.0)) throw std::invalid_argument("CrossoverSpread: lambda must be > 0");
  const double gene_limit = std::min(5e5, 5e14 * lambda) / (lambda + 38.0);
  max_gene_ = static_cast<int>(std::min(gene_limit, 1e6));
  rows_ = static_cast<std::size_t>(std::clamp(max_span, 0LL, kMaxRows)) + 1;
  octaves_.reserve(rows_ * kOctaves);
  // One row's bands [T_j (1 - 1e-9), T_j (1 + 1e-9)], T_j descending: j from
  // 0 for odd d (T_0 = 1), from 1 for even d, down to the last T_j >= 2^-54
  // (u >= 2^-53 never reaches below it) or cut off after 16. Row 0 (a == b)
  // has none.
  struct Band {
    double lo;
    double hi;
  };
  std::vector<Band> bands;
  for (std::size_t d = 0; d < rows_; ++d) {
    bands.clear();
    bool capped = false;
    const int even = d % 2 == 0 ? 1 : 0;
    for (int j = even; d > 0; ++j) {
      if (bands.size() == kMaxRowBands) {
        capped = true;
        break;
      }
      const double t =
          std::exp(-lambda * static_cast<double>(2 * j - even) / static_cast<double>(d));
      if (t < 0x1.0p-54) break;
      bands.push_back({t * (1.0 - kBand), t * (1.0 + kBand)});
    }
    // Octave o holds u in [2^-(o+1), 2^-o). Bands wholly above it count for
    // every such u, and at most one band may cross it. Where two cross, or
    // at or below a capped row's last band (past which thresholds are
    // unknown), the octave's band is the whole octave: the formula decides.
    // Both the bands and the octaves descend, so one sweep finds each's.
    std::size_t above = 0;
    double high = 1.0;
    for (std::uint64_t o = 0; o < kOctaves; ++o, high /= 2.0) {
      const double low = high / 2.0;
      while (above < bands.size() && bands[above].lo >= high) ++above;
      std::size_t crossing = above;
      while (crossing < bands.size() && bands[crossing].hi >= low) ++crossing;
      Octave octave{0, 0, static_cast<int>(above)};
      if (crossing - above > 1 || (capped && low <= bands.back().hi)) {
        octave.hi = std::bit_cast<std::uint64_t>(1.0);
      } else if (crossing - above == 1) {
        octave.lo = std::bit_cast<std::uint64_t>(bands[above].lo);
        octave.hi = std::bit_cast<std::uint64_t>(bands[above].hi);
      }
      octaves_.push_back(octave);
    }
  }
}

std::pair<int, int> CrossoverSpread::formula(int a, int b, double u) const {
  const double beta = Rng::exponential_quantile(u, lambda_);
  const double x = static_cast<double>(a);
  const double y = static_cast<double>(b);
  return {round_half_away(0.5 * ((1.0 + beta) * x + (1.0 - beta) * y)),
          round_half_away(0.5 * ((1.0 - beta) * x + (1.0 + beta) * y))};
}

std::pair<int, int> CrossoverSpread::children(int a, int b, double u) const {
  if (a < -max_gene_ || a > max_gene_ || b < -max_gene_ || b > max_gene_) {
    return formula(a, b, u);
  }
  const int d = a - b;
  const std::size_t row = static_cast<std::size_t>(d < 0 ? -d : d);
  if (row >= rows_) return formula(a, b, u);
  // u in [2^-(o+1), 2^-o) has biased exponent 1022 - o; u outside [2^-53, 1)
  // (or NaN) wraps o past the table.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u);
  const std::uint64_t o = 1022 - (bits >> 52);
  if (o >= kOctaves) return formula(a, b, u);
  const Octave& octave = octaves_[row * kOctaves + o];
  // Positive doubles order as their bit patterns, which stay below 2^63, so
  // x <= y is the sign of y - x: arithmetic the compiler cannot turn into a
  // branch on a random outcome. Only the rare in-band case branches.
  const auto at_or_below = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<int>(1 + (static_cast<std::int64_t>(y - x) >> 63));
  };
  const int counts = at_or_below(bits, octave.lo);
  if (at_or_below(bits, octave.hi) != counts) return formula(a, b, u);
  return place(a, b, octave.above + counts);
}

namespace {

std::vector<int> bounds_of(const IntegerProblem& problem, bool upper) {
  std::vector<int> bounds(problem.num_variables());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = upper ? problem.upper_bound(i) : problem.lower_bound(i);
  }
  return bounds;
}

long long max_span(const std::vector<int>& lower, const std::vector<int>& upper) {
  long long span = 0;
  for (std::size_t i = 0; i < lower.size(); ++i) {
    if (lower[i] > upper[i]) {
      throw std::invalid_argument("nsga2: variable " + std::to_string(i) +
                                  " has lower_bound > upper_bound");
    }
    span = std::max(span, static_cast<long long>(upper[i]) - lower[i]);
  }
  return span;
}

double mutation_probability(const Nsga2Config& config, std::size_t n_vars) {
  return config.mutation_prob_per_gene > 0.0 ? config.mutation_prob_per_gene
                                             : 1.0 / static_cast<double>(n_vars);
}

}  // namespace

Variation::Variation(const IntegerProblem& problem, const Nsga2Config& config)
    : lower_(bounds_of(problem, false)),
      upper_(bounds_of(problem, true)),
      crossover_(Rng::bernoulli_threshold(config.crossover_prob)),
      log_keep_(std::log1p(-mutation_probability(config, lower_.size()))),
      mutation_exponent_(1.0 / (config.mutation_eta + 1.0)),
      spread_(config.exponential_lambda, max_span(lower_, upper_)) {}

// Genes are visited in words of 64: `differ` marks the word's genes on which
// the parents differ, and only those under a coin draw their spread u. Each
// bit of one draw is a fair coin; a gene is crossed where its bit is clear.
void Variation::crossover(const std::vector<int>& p1, const std::vector<int>& p2,
                          std::vector<int>& c1, std::vector<int>& c2, Rng& rng,
                          TouchedGenes& touched) const {
  c1 = p1;
  c2 = p2;
  if (p1 == p2 || !rng.bernoulli_below(crossover_)) return;
  const std::size_t n = p1.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::uint64_t differ = 0;
    for (std::size_t j = 0; j < len; ++j) {
      differ |= static_cast<std::uint64_t>(p1[base + j] != p2[base + j]) << j;
    }
    if (differ == 0) continue;
    for (std::uint64_t pick = differ & ~rng(); pick != 0; pick &= pick - 1) {
      const std::size_t i = base + static_cast<std::size_t>(std::countr_zero(pick));
      const auto [child1, child2] = spread_.children(p1[i], p2[i], rng.uniform_positive());
      c1[i] = child1;
      c2[i] = child2;
      touched.append_if(i, ((child1 ^ p1[i]) | (child2 ^ p2[i])) != 0);
    }
  }
}

// The gap G before the next mutated gene is geometric:
// P(G >= k) = P(u <= (1 - p)^k) = (1 - p)^k for u uniform in (0, 1). p = 1
// gives log1p(-1) = -inf and G = 0 at every gene.
void Variation::mutate(std::vector<int>& genome, Rng& rng, TouchedGenes& touched) const {
  const std::size_t n = genome.size();
  for (std::size_t i = 0;; ++i) {
    const double gap = std::floor(std::log(rng.uniform_positive()) / log_keep_);
    if (!(gap < static_cast<double>(n - i))) return;
    i += static_cast<std::size_t>(gap);
    const double lo = lower_[i];
    const double hi = upper_[i];
    if (hi <= lo) continue;
    const double x = genome[i];
    const double u = rng.uniform();
    double delta;
    if (u < 0.5) {
      delta = std::pow(2.0 * u, mutation_exponent_) - 1.0;
    } else {
      delta = 1.0 - std::pow(2.0 * (1.0 - u), mutation_exponent_);
    }
    genome[i] = round_half_away(x + delta * (hi - lo));
    touched.append_if(i, true);
  }
}

namespace {

// Binary tournament: lower rank wins; ties broken by larger crowding.
const Individual& tournament(std::span<const Individual> pop, const UniformInt& pick, Rng& rng) {
  const auto& a = pop[static_cast<std::size_t>(pick(rng))];
  const auto& b = pop[static_cast<std::size_t>(pick(rng))];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

void repair_touched(const IntegerProblem& problem, std::vector<int>& genome,
                    const TouchedGenes& touched) {
  for (const std::size_t i : touched.genes()) genome[i] = problem.repair_gene(i, genome[i]);
}

// Batch-evaluates the individuals whose genome and objective vectors the two
// pointer lists name.
struct EvaluationBatch {
  std::vector<const std::vector<int>*> genomes;
  std::vector<std::vector<double>*> objectives;

  explicit EvaluationBatch(std::span<Individual> pop) {
    genomes.reserve(pop.size());
    objectives.reserve(pop.size());
    for (auto& ind : pop) {
      genomes.push_back(&ind.genome);
      objectives.push_back(&ind.objectives);
    }
  }

  void run(const IntegerProblem& problem, std::size_t& evaluations) const {
    problem.evaluate_batch(genomes, objectives);
    evaluations += genomes.size();
  }
};

void validate(const IntegerProblem& problem, const Nsga2Config& config) {
  if (problem.num_variables() == 0) {
    throw std::invalid_argument("nsga2: problem has no variables");
  }
  if (config.population_size < 4) {
    throw std::invalid_argument("nsga2: population_size must be >= 4");
  }
  if (!(config.exponential_lambda > 0.0)) {
    throw std::invalid_argument("nsga2: exponential_lambda must be > 0");
  }
  if (!(config.mutation_eta >= 0.0)) {
    throw std::invalid_argument("nsga2: mutation_eta must be >= 0");
  }
  if (!(config.crossover_prob >= 0.0 && config.crossover_prob <= 1.0)) {
    throw std::invalid_argument("nsga2: crossover_prob must lie in [0, 1]");
  }
  if (!(config.mutation_prob_per_gene <= 1.0)) {
    throw std::invalid_argument("nsga2: mutation_prob_per_gene must be <= 1");
  }
  if (config.tolerance_window < 1) {
    throw std::invalid_argument("nsga2: tolerance_window must be >= 1");
  }
}

}  // namespace

Nsga2Result nsga2(const IntegerProblem& problem, const Nsga2Config& config) {
  validate(problem, config);
  const Variation variation(problem, config);
  Rng rng(config.seed);
  Nsga2Result result;
  const std::size_t pop_size = config.population_size;
  const std::size_t n_vars = problem.num_variables();
  const std::size_t n_objs = problem.num_objectives();

  // merged[0, P) is the population, merged[P, 2P) the offspring. After
  // environmental selection the truncated tail's buffers are reused for the
  // next generation's offspring.
  std::vector<Individual> merged(2 * pop_size);
  for (auto& ind : merged) {
    ind.genome.resize(n_vars);
    ind.objectives.resize(n_objs);
  }
  const std::span<Individual> pop(merged.data(), pop_size);
  const std::span<Individual> offspring(merged.data() + pop_size, pop_size);
  const EvaluationBatch pop_batch(pop);
  const EvaluationBatch offspring_batch(offspring);
  Individual spare;  // an odd population's unused second child
  SortScratch scratch;
  TouchedGenes touched1(n_vars);
  TouchedGenes touched2(n_vars);

  // Random-integer initialization within bounds, with caller-provided
  // heuristic seeds occupying the first slots.
  std::vector<UniformInt> init_draw;
  init_draw.reserve(n_vars);
  const auto& lower = variation.lower();
  const auto& upper = variation.upper();
  for (std::size_t i = 0; i < n_vars; ++i) {
    if (i > 0 && lower[i] == lower[i - 1] && upper[i] == upper[i - 1]) {
      init_draw.push_back(init_draw.back());
    } else {
      init_draw.emplace_back(lower[i], upper[i]);
    }
  }
  for (std::size_t p = 0; p < pop_size; ++p) {
    auto& ind = pop[p];
    if (p < config.initial_genomes.size() && config.initial_genomes[p].size() == n_vars) {
      ind.genome = config.initial_genomes[p];
    } else {
      for (std::size_t i = 0; i < n_vars; ++i) ind.genome[i] = static_cast<int>(init_draw[i](rng));
    }
    problem.repair(ind.genome);
  }
  pop_batch.run(problem, result.evaluations);
  assign_ranks_and_crowding(pop, scratch);

  // Sliding-window tolerance bookkeeping: track the ideal point (per-
  // objective minima) over the last `tolerance_window` generations.
  std::vector<std::vector<double>> ideal_history;
  auto ideal_point = [&pop] {
    std::vector<double> ideal = pop[0].objectives;
    for (const auto& ind : pop) {
      for (std::size_t m = 0; m < ideal.size(); ++m) {
        ideal[m] = std::min(ideal[m], ind.objectives[m]);
      }
    }
    return ideal;
  };
  ideal_history.push_back(ideal_point());

  const UniformInt pick(0, static_cast<std::int64_t>(pop_size) - 1);
  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    if (result.evaluations >= config.max_evaluations) break;
    ++result.generations;

    // Offspring via tournament + exponential crossover + polynomial mutation.
    // Untouched genes are copies of repaired parent genes, so only the
    // touched ones need repair_gene.
    for (std::size_t filled = 0; filled < pop_size; filled += 2) {
      const auto& p1 = tournament(pop, pick, rng);
      const auto& p2 = tournament(pop, pick, rng);
      Individual& c1 = offspring[filled];
      Individual& c2 = filled + 1 < pop_size ? offspring[filled + 1] : spare;
      touched1.clear();
      variation.crossover(p1.genome, p2.genome, c1.genome, c2.genome, rng, touched1);
      touched2.assign(touched1);
      variation.mutate(c1.genome, rng, touched1);
      variation.mutate(c2.genome, rng, touched2);
      repair_touched(problem, c1.genome, touched1);
      repair_touched(problem, c2.genome, touched2);
    }
    offspring_batch.run(problem, result.evaluations);

    // Environmental selection over parents + offspring. Truncation keeps a
    // prefix in rank order, so every dominator of a kept individual (which
    // has a lower rank) is kept too and the kept ranks stay valid; only the
    // crowding distances change. Ranks left unpeeled by a dominance cycle
    // carry no such guarantee and are recomputed.
    const bool peeled = assign_ranks_and_crowding(merged, scratch);
    std::sort(merged.begin(), merged.end(), [](const Individual& a, const Individual& b) {
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.crowding > b.crowding;
    });
    if (peeled) {
      assign_crowding(pop, scratch);
    } else {
      assign_ranks_and_crowding(pop, scratch);
    }

    // Tolerance termination over the sliding window.
    ideal_history.push_back(ideal_point());
    if (ideal_history.size() > config.tolerance_window) {
      ideal_history.erase(ideal_history.begin());
      const auto& oldest = ideal_history.front();
      const auto& latest = ideal_history.back();
      double rel_improvement = 0.0;
      for (std::size_t m = 0; m < latest.size(); ++m) {
        const double denom = std::max(std::abs(oldest[m]), 1e-12);
        rel_improvement = std::max(rel_improvement, (oldest[m] - latest[m]) / denom);
      }
      if (rel_improvement < config.tolerance) {
        result.converged_by_tolerance = true;
        break;
      }
    }
  }

  // Extract the deduplicated rank-0 front.
  for (const auto& ind : pop) {
    if (ind.rank != 0) continue;
    const bool duplicate =
        std::any_of(result.front.begin(), result.front.end(),
                    [&ind](const Solution& s) { return s.genome == ind.genome; });
    if (!duplicate) result.front.push_back({ind.genome, ind.objectives});
  }
  std::sort(result.front.begin(), result.front.end(), [](const Solution& a, const Solution& b) {
    return a.objectives[0] < b.objectives[0];
  });
  return result;
}

}  // namespace qon::moo
