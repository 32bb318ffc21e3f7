#pragma once
// The scheduling optimization problem of Eq. 1: decision variable x_i is
// the QPU assigned to job i; objectives are mean JCT and mean error
// (1 - mean fidelity), both minimized, subject to q_i <= s_{x_i}.

#include "moo/problem.hpp"
#include "sched/job.hpp"

namespace qon::sched {

/// Eq. 1 as a moo::IntegerProblem. Pre-computes flat [job * Q + qpu] tables
/// of feasibility (size + online filters), execution time and fidelity, the
/// per-QPU queue waits, and each job's feasible QPU set; repair_gene()
/// clamps to [0, Q-1] and snaps an infeasible gene to the nearest feasible
/// QPU. Jobs with no feasible QPU must be filtered out before construction
/// (see preprocess_jobs).
class SchedulingProblem : public moo::IntegerProblem {
 public:
  explicit SchedulingProblem(const SchedulingInput& input);

  std::size_t num_variables() const override;
  int lower_bound(std::size_t i) const override;
  int upper_bound(std::size_t i) const override;
  std::size_t num_objectives() const override { return 2; }

  /// objectives[0] = mean JCT (Eq. 1 f1), objectives[1] = mean error (f2).
  /// Allocates nothing for fleets of up to 64 QPUs.
  void evaluate(const std::vector<int>& genome,
                std::vector<double>& objectives) const override;

  /// evaluate() four genomes per pass, then one at a time for the rest.
  /// Bit-identical to evaluate() on each genome.
  void evaluate_batch(std::span<const std::vector<int>* const> genomes,
                      std::span<std::vector<double>* const> objectives) const override;

  int repair_gene(std::size_t job, int qpu) const override;

  /// Mean execution time of the assignment (Fig. 10a's metric).
  double mean_execution_time(const std::vector<int>& genome) const;

  const SchedulingInput& input() const { return *input_; }

 private:
  std::size_t cell(std::size_t job, int qpu) const {
    return job * qpu_count_ + static_cast<std::size_t>(qpu);
  }
  bool feasible_on(std::size_t job, int qpu) const { return feasible_flag_[cell(job, qpu)] != 0; }

  // Eq. 1 for `Lanes` genomes at once; see problem.cpp.
  template <std::size_t Lanes>
  void eq1(const std::vector<int>* const* genomes, std::vector<double>* const* objectives) const;

  const SchedulingInput* input_;
  std::size_t qpu_count_;
  // Flat [job * Q + qpu] tables.
  std::vector<unsigned char> feasible_flag_;
  std::vector<double> exec_seconds_;
  std::vector<double> fidelity_;
  std::vector<double> queue_wait_;          ///< per QPU
  std::vector<std::vector<int>> feasible_;  ///< per-job feasible QPU indices, ascending
};

}  // namespace qon::sched
