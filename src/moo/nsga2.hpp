#pragma once
// NSGA-II (Deb et al. 2002) over integer genomes, customized per §7 of the
// paper: random-integer initialization, crossover spread sampled from an
// exponential distribution, polynomial mutation in a parent's vicinity, and
// termination by generation/evaluation caps plus a sliding-window tolerance
// test over a sequence of generations.
//
// Bit-identity contract: for a given problem and config, nsga2() draws from
// the RNG in the same order, sums in the same order and passes the same
// inputs to every std::sort as the textbook formulation: Deb's O(MN^2)
// peeling sort over parents + offspring and again over the truncated
// population, a uniform() < p comparison per Bernoulli trial, a fresh
// uniform_int per draw, the lround crossover and mutation formulas, repair()
// of every offspring gene, and one evaluate() per genome. It therefore
// returns the same front bit for bit. Each shortcut is exact by construction:
//   - The two-objective front sort is O(P log P) ENS-BS, and the ranks of
//     the truncated population are reused rather than recomputed.
//   - A Bernoulli trial whose probability is fixed for the run compares the
//     raw draw against Rng::bernoulli_threshold(p). The initial population's
//     and the tournaments' uniform_int ranges are hoisted into UniformInt,
//     whose precomputed reciprocal gives the same remainder as r % span.
//   - std::lround is replaced by a round-half-away helper that equals
//     static_cast<int>(std::lround(x)) for every double.
//   - Only the genes crossover or mutation touched are repaired, which
//     relies on IntegerProblem::repair_gene's per-gene, idempotent contract.
//   - The crossover children are read from a CrossoverSpread table, which
//     evaluates the formula instead for a draw within a relative 1e-9 of a
//     table threshold (the fallback band) or past the table's row, and for
//     genes too large for that band to cover the formula's rounding error.
//     Genes on which the parents agree still draw their coin and u.
//   - Genomes are evaluated through IntegerProblem::evaluate_batch, which
//     must equal evaluate() on every genome.

#include <cstdint>
#include <utility>
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
/// objective (ascending) for deterministic downstream selection. Throws
/// std::invalid_argument before drawing anything unless: the problem has
/// variables and lower_bound(i) <= upper_bound(i) for each; population_size
/// >= 4; exponential_lambda > 0; mutation_eta >= 0; crossover_prob and
/// crossover_rate_per_gene lie in [0, 1]; mutation_prob_per_gene <= 1; and
/// tolerance_window >= 1.
Nsga2Result nsga2(const IntegerProblem& problem, const Nsga2Config& config);

/// Exposed for testing: exponential crossover (§7) on one gene, read from a
/// table. For parent genes a, b and the uniform draw u in (0, 1) behind
/// beta = -log(u) / lambda (Rng::exponential), the formula is
///   child1 = lround(0.5 ((1 + beta) a + (1 - beta) b)),
///   child2 = lround(0.5 ((1 - beta) a + (1 + beta) b)).
/// With d = a - b != 0, child1 = (a + b + sgn(d) [d odd]) / 2 + sgn(d) J and
/// child2 = a + b - child1, where J counts the thresholds
/// T_j = exp(-lambda (2j - [d even]) / |d|), j >= 1, at or above u; d = 0
/// gives (a, a). J is read from the octave [2^-(o+1), 2^-o) that holds u:
/// per row of |d|, each octave stores how many thresholds lie above it and
/// the one threshold inside it, if any. children() returns the formula's
/// result for every input: it evaluates the formula itself when u lies
/// within a relative 1e-9 of a threshold (for odd d also of T_0 = 1), in an
/// octave that holds two thresholds or lies past a row cut off after 16, and
/// when |d| > 64 or |a| or |b| exceeds max_gene().
class CrossoverSpread {
 public:
  /// One row per |d| in [0, min(max_span, 64)]. Requires lambda > 0.
  CrossoverSpread(double lambda, long long max_span);

  /// The table serves u in [2^-53, 1), the range of
  /// Rng::uniform_positive; any other u takes the formula.
  std::pair<int, int> children(int a, int b, double u) const;

  /// Largest |gene| the table serves: the formula's rounding error there is
  /// far below the distance the 1e-9 band keeps u from a threshold.
  int max_gene() const { return max_gene_; }

 private:
  /// The octave [2^-(o+1), 2^-o) of one row: `above` thresholds count for
  /// every u in it, and lo, hi are the bit patterns of the one band that
  /// crosses it (0, 0 if none). An octave the table cannot decide has the
  /// whole octave as its band, so every u there takes the formula.
  struct Octave {
    std::uint64_t lo;
    std::uint64_t hi;
    int above;
  };

  std::pair<int, int> formula(int a, int b, double u) const;

  double lambda_;
  int max_gene_ = 0;
  std::size_t rows_ = 0;         ///< rows |d| = 0 .. rows_ - 1
  std::vector<Octave> octaves_;  ///< [|d| * 53 + o]
};

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
