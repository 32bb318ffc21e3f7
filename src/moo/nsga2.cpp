#include "moo/nsga2.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

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

// Binary tournament: lower rank wins; ties broken by larger crowding.
const Individual& tournament(std::span<const Individual> pop, Rng& rng) {
  const auto& a = pop[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
  const auto& b = pop[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

// Crossover with exponentially distributed spread (paper §7): children are
// placed at 0.5((1±beta) p1 + (1∓beta) p2) with beta ~ Exp(lambda), rounded
// back to integers.
void exponential_crossover(const std::vector<int>& p1, const std::vector<int>& p2,
                           std::vector<int>& c1, std::vector<int>& c2,
                           const Nsga2Config& cfg, Rng& rng) {
  c1 = p1;
  c2 = p2;
  if (!rng.bernoulli(cfg.crossover_prob)) return;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    if (!rng.bernoulli(cfg.crossover_rate_per_gene)) continue;
    const double beta = rng.exponential(cfg.exponential_lambda);
    const double a = static_cast<double>(p1[i]);
    const double b = static_cast<double>(p2[i]);
    const double child1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b);
    const double child2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b);
    c1[i] = static_cast<int>(std::lround(child1));
    c2[i] = static_cast<int>(std::lround(child2));
  }
}

// Inclusive per-variable bounds, read once per run.
struct Bounds {
  std::vector<int> lower;
  std::vector<int> upper;
};

// Polynomial mutation (Deb): perturbs within the parent's vicinity with a
// polynomial probability distribution of index eta.
void polynomial_mutation(std::vector<int>& genome, const Bounds& bounds,
                         const Nsga2Config& cfg, Rng& rng) {
  const double p_gene = cfg.mutation_prob_per_gene > 0.0
                            ? cfg.mutation_prob_per_gene
                            : 1.0 / static_cast<double>(genome.size());
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (!rng.bernoulli(p_gene)) continue;
    const double lo = bounds.lower[i];
    const double hi = bounds.upper[i];
    if (hi <= lo) continue;
    const double x = genome[i];
    const double u = rng.uniform();
    const double eta = cfg.mutation_eta;
    double delta;
    if (u < 0.5) {
      delta = std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0;
    } else {
      delta = 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
    }
    genome[i] = static_cast<int>(std::lround(x + delta * (hi - lo)));
  }
}

void evaluate_population(std::span<Individual> pop, const IntegerProblem& problem,
                         std::size_t& evaluations) {
  for (auto& ind : pop) problem.evaluate(ind.genome, ind.objectives);
  evaluations += pop.size();
}

}  // namespace

Nsga2Result nsga2(const IntegerProblem& problem, const Nsga2Config& config) {
  if (problem.num_variables() == 0) {
    throw std::invalid_argument("nsga2: problem has no variables");
  }
  if (config.population_size < 4) {
    throw std::invalid_argument("nsga2: population_size must be >= 4");
  }
  Rng rng(config.seed);
  Nsga2Result result;
  const std::size_t pop_size = config.population_size;
  const std::size_t n_vars = problem.num_variables();
  const std::size_t n_objs = problem.num_objectives();
  Bounds bounds{std::vector<int>(n_vars), std::vector<int>(n_vars)};
  for (std::size_t i = 0; i < n_vars; ++i) {
    bounds.lower[i] = problem.lower_bound(i);
    bounds.upper[i] = problem.upper_bound(i);
  }

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
  Individual spare;  // an odd population's unused second child
  SortScratch scratch;

  // Random-integer initialization within bounds, with caller-provided
  // heuristic seeds occupying the first slots.
  for (std::size_t p = 0; p < pop_size; ++p) {
    auto& ind = pop[p];
    if (p < config.initial_genomes.size() && config.initial_genomes[p].size() == n_vars) {
      ind.genome = config.initial_genomes[p];
    } else {
      for (std::size_t i = 0; i < n_vars; ++i) {
        ind.genome[i] = static_cast<int>(rng.uniform_int(bounds.lower[i], bounds.upper[i]));
      }
    }
    problem.repair(ind.genome);
  }
  evaluate_population(pop, problem, result.evaluations);
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

  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    if (result.evaluations >= config.max_evaluations) break;
    ++result.generations;

    // Offspring via tournament + exponential crossover + polynomial mutation.
    for (std::size_t filled = 0; filled < pop_size; filled += 2) {
      const auto& p1 = tournament(pop, rng);
      const auto& p2 = tournament(pop, rng);
      Individual& c1 = offspring[filled];
      Individual& c2 = filled + 1 < pop_size ? offspring[filled + 1] : spare;
      exponential_crossover(p1.genome, p2.genome, c1.genome, c2.genome, config, rng);
      polynomial_mutation(c1.genome, bounds, config, rng);
      polynomial_mutation(c2.genome, bounds, config, rng);
      problem.repair(c1.genome);
      problem.repair(c2.genome);
    }
    evaluate_population(offspring, problem, result.evaluations);

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
