#pragma once
// NSGA-II (Deb et al. 2002) over integer genomes, customized per §7 of the
// paper: random-integer initialization, crossover spread sampled from an
// exponential distribution, polynomial mutation in a parent's vicinity, and
// termination by generation/evaluation caps plus a sliding-window tolerance
// test over a sequence of generations.
//
// Bit-identity contract: the O(P log P) two-objective front sort and the
// rank reuse after truncation are exact shortcuts. For a given problem and
// config, nsga2() draws from the RNG in the same order, sums in the same
// order and passes the same inputs to every std::sort as the O(MN^2)
// formulation (Deb's peeling sort over parents + offspring, then again over
// the truncated population), so it returns the same front bit for bit.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "moo/problem.hpp"

namespace qon::moo {

/// Algorithm configuration; defaults follow the paper's scheduler setup.
struct Nsga2Config {
  std::size_t population_size = 80;
  std::size_t max_generations = 60;
  std::size_t max_evaluations = 20000;
  double crossover_prob = 0.9;
  double crossover_rate_per_gene = 0.5;
  double exponential_lambda = 3.0;  ///< crossover spread ~ Exp(lambda)
  double mutation_prob_per_gene = -1.0;  ///< <0 means 1/num_variables
  double mutation_eta = 20.0;            ///< polynomial mutation index
  std::size_t tolerance_window = 8;      ///< generations in the sliding window
  double tolerance = 1e-4;               ///< relative ideal-point improvement
  std::uint64_t seed = 1;
  /// Heuristic genomes injected into the initial population (repaired
  /// first). Seeding the extremes (e.g. best-fidelity / least-busy
  /// assignments) guarantees the front covers the corners of the objective
  /// space that random initialization rarely reaches.
  std::vector<std::vector<int>> initial_genomes;
};

/// One member of the final front.
struct Solution {
  std::vector<int> genome;
  std::vector<double> objectives;
};

/// Result of a run: the non-dominated front plus bookkeeping.
struct Nsga2Result {
  std::vector<Solution> front;        ///< rank-0 solutions (deduplicated)
  std::size_t generations = 0;
  std::size_t evaluations = 0;
  bool converged_by_tolerance = false;
};

/// Runs NSGA-II on `problem`. The returned front is sorted by the first
/// objective (ascending) for deterministic downstream selection.
Nsga2Result nsga2(const IntegerProblem& problem, const Nsga2Config& config);

/// Exposed for testing: fast non-dominated sort. Returns per-individual rank
/// (0 = best front). With exactly two objectives, all finite, it sweeps the
/// points in lexicographic order and binary-searches each point's front
/// (ENS-BS, O(P log P)); other inputs take Deb's O(MN^2) peeling sort. Both
/// paths return the same ranks: each point's peeling level.
std::vector<std::size_t> fast_non_dominated_sort(
    const std::vector<std::vector<double>>& objectives);

/// Exposed for testing: crowding distance within one front (index list into
/// `objectives`). Boundary points get +inf.
std::vector<double> crowding_distance(const std::vector<std::vector<double>>& objectives,
                                      const std::vector<std::size_t>& front);

}  // namespace qon::moo
