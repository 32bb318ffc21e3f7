#pragma once
// Multi-objective optimization problem interface. Qonductor's scheduling
// problem (Eq. 1) is an integer-assignment problem: variable i is the QPU
// index assigned to job i. All objectives are minimized.

#include <cstddef>
#include <span>
#include <vector>

namespace qon::moo {

/// An integer-vector multi-objective minimization problem.
class IntegerProblem {
 public:
  virtual ~IntegerProblem() = default;

  /// Number of decision variables (genome length).
  virtual std::size_t num_variables() const = 0;

  /// Inclusive bounds for variable i.
  virtual int lower_bound(std::size_t i) const = 0;
  virtual int upper_bound(std::size_t i) const = 0;

  /// Number of objectives (all minimized).
  virtual std::size_t num_objectives() const = 0;

  /// Evaluates a genome; must fill `objectives` (size num_objectives()).
  /// Infeasible assignments should be repaired or penalized here.
  virtual void evaluate(const std::vector<int>& genome,
                        std::vector<double>& objectives) const = 0;

  /// Evaluates genomes[k] into objectives[k] for every k (the spans have
  /// equal length). Must give exactly what evaluate() gives for each genome;
  /// an override exists only to be faster, e.g. by interleaving several
  /// genomes' sums. Default: one evaluate() call per genome.
  virtual void evaluate_batch(std::span<const std::vector<int>* const> genomes,
                              std::span<std::vector<double>* const> objectives) const;

  /// Repair hook for one gene: the feasible value gene i takes in place of
  /// `value`. Default: clamp to [lower_bound(i), upper_bound(i)].
  ///
  /// Contract: the result depends only on (i, value), and repairing a
  /// repaired value returns it unchanged (idempotence). NSGA-II relies on
  /// both: it repairs only the genes crossover or mutation touched, since
  /// every other gene is a copy of an already repaired parent gene.
  virtual int repair_gene(std::size_t i, int value) const;

  /// Applies repair_gene() to every gene of `genome`.
  void repair(std::vector<int>& genome) const;
};

/// True when objective vector `a` Pareto-dominates `b` (<= everywhere,
/// < somewhere).
bool dominates(const std::vector<double>& a, const std::vector<double>& b);

/// Indices of the non-dominated members of `objectives`.
std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& objectives);

}  // namespace qon::moo
