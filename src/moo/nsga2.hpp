#pragma once
// NSGA-II (Deb et al. 2002) over integer genomes, customized per §7 of the
// paper: random-integer initialization, crossover spread sampled from an
// exponential distribution, polynomial mutation in a parent's vicinity, and
// termination by generation/evaluation caps plus a sliding-window tolerance
// test over a sequence of generations.
//
// Distribution contract: for a given problem, config and seed, nsga2() is
// deterministic, and its operators sample the distributions of the textbook
// formulation exactly, though from a different RNG stream than one draw per
// gene would use:
//   - Crossover of a pair happens with probability crossover_prob, and each
//     gene on which the parents differ is crossed with probability 1/2.
//     Genes on which the parents agree would get (a, a) whatever the draw,
//     so they draw nothing, and parents that agree everywhere draw nothing
//     at all. The per-gene coins are the bits of one draw per 64 genes.
//   - A crossed gene's children are the lround formula below, read from a
//     CrossoverSpread table that gives the formula's result for every draw.
//   - Each gene mutates with probability p independently: mutation samples
//     the gap to the next mutated gene, floor(log(u) / log1p(-p)), a
//     geometric variable, instead of one Bernoulli draw per gene.
//   - The initial population and the tournaments draw as Rng::uniform_int
//     does; std::lround is replaced by a helper equal to it for every double.
//   - Only the genes crossover or mutation touched are repaired, which
//     relies on IntegerProblem::repair_gene's per-gene, idempotent contract.
//   - Genomes are evaluated through IntegerProblem::evaluate_batch, which
//     must equal evaluate() on every genome bit for bit.
//   - The two-objective front sort is O(P log P) ENS-BS, and the ranks of
//     the truncated population are reused rather than recomputed; both give
//     Deb's peeling ranks.

#include <algorithm>
#include <cstdint>
#include <span>
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
/// >= 4; exponential_lambda > 0; mutation_eta >= 0; crossover_prob lies in
/// [0, 1]; mutation_prob_per_gene <= 1; and tolerance_window >= 1.
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

/// Exposed for testing: the genes the variation operators changed in one
/// offspring, in the order they were touched; a gene may appear twice
/// (crossover, then mutation). Holds up to twice the genome length.
class TouchedGenes {
 public:
  explicit TouchedGenes(std::size_t n_vars) : genes_(2 * n_vars) {}

  void clear() { size_ = 0; }
  /// Writes unconditionally and advances only when asked, so a caller need
  /// not branch on whether a gene changed.
  void append_if(std::size_t i, bool changed) {
    genes_[size_] = i;
    size_ += changed ? 1 : 0;
  }
  void assign(const TouchedGenes& other) {
    std::copy_n(other.genes_.begin(), other.size_, genes_.begin());
    size_ = other.size_;
  }
  std::span<const std::size_t> genes() const { return {genes_.data(), size_}; }

 private:
  std::vector<std::size_t> genes_;
  std::size_t size_ = 0;
};

/// Exposed for testing: NSGA-II's variation operators for one problem and
/// config (bounds, rates, spread). Throws std::invalid_argument when a
/// variable's lower bound exceeds its upper bound; nsga2() validates the
/// rest of the config.
class Variation {
 public:
  Variation(const IntegerProblem& problem, const Nsga2Config& config);

  /// Exponential crossover (§7): c1, c2 become copies of p1, p2; then, with
  /// probability crossover_prob, each gene on which the parents differ is
  /// crossed with probability 1/2, its children read from the spread table. Genes whose children differ from the parents'
  /// are appended to `touched`. Parents that agree on every gene consume no
  /// draw.
  void crossover(const std::vector<int>& p1, const std::vector<int>& p2, std::vector<int>& c1,
                 std::vector<int>& c2, Rng& rng, TouchedGenes& touched) const;

  /// Polynomial mutation (Deb) of each gene with probability
  /// mutation_prob_per_gene (1 / genome length when <= 0): perturbs within
  /// the gene's bounds with a polynomial distribution of index eta. Each
  /// mutated gene with lower < upper is appended to `touched`. Draws one gap
  /// per mutated gene plus one, and one u per mutated gene with lower <
  /// upper.
  void mutate(std::vector<int>& genome, Rng& rng, TouchedGenes& touched) const;

  const std::vector<int>& lower() const { return lower_; }
  const std::vector<int>& upper() const { return upper_; }

 private:
  std::vector<int> lower_;  ///< inclusive per-variable bounds
  std::vector<int> upper_;
  std::uint64_t crossover_;  ///< bernoulli_threshold(crossover_prob)
  double log_keep_;          ///< log1p(-per-gene mutation probability)
  double mutation_exponent_;  ///< 1 / (eta + 1)
  CrossoverSpread spread_;
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
