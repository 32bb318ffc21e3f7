#include "sched/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qon::sched {

SchedulingProblem::SchedulingProblem(const SchedulingInput& input)
    : input_(&input), qpu_count_(input.qpus.size()) {
  if (input.jobs.empty()) throw std::invalid_argument("SchedulingProblem: no jobs");
  if (input.qpus.empty()) throw std::invalid_argument("SchedulingProblem: no QPUs");
  const std::size_t cells = input.jobs.size() * qpu_count_;
  feasible_flag_.assign(cells, 0);
  exec_seconds_.reserve(cells);
  fidelity_.reserve(cells);
  queue_wait_.reserve(qpu_count_);
  for (const auto& qpu : input.qpus) queue_wait_.push_back(qpu.queue_wait_seconds);
  feasible_.resize(input.jobs.size());
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    const auto& job = input.jobs[j];
    if (job.est_fidelity.size() != qpu_count_ || job.est_exec_seconds.size() != qpu_count_) {
      throw std::invalid_argument("SchedulingProblem: estimate arity mismatch for job " +
                                  std::to_string(job.id));
    }
    exec_seconds_.insert(exec_seconds_.end(), job.est_exec_seconds.begin(),
                         job.est_exec_seconds.end());
    fidelity_.insert(fidelity_.end(), job.est_fidelity.begin(), job.est_fidelity.end());
    for (std::size_t q = 0; q < qpu_count_; ++q) {
      const auto& qpu = input.qpus[q];
      if (qpu.online && job.qubits <= qpu.size && std::isfinite(job.est_exec_seconds[q])) {
        feasible_flag_[cell(j, static_cast<int>(q))] = 1;
        feasible_[j].push_back(static_cast<int>(q));
      }
    }
    if (feasible_[j].empty()) {
      throw std::invalid_argument("SchedulingProblem: job " + std::to_string(job.id) +
                                  " has no feasible QPU (filter it first)");
    }
  }
}

std::size_t SchedulingProblem::num_variables() const { return input_->jobs.size(); }

int SchedulingProblem::lower_bound(std::size_t) const { return 0; }

int SchedulingProblem::upper_bound(std::size_t) const {
  return static_cast<int>(qpu_count_) - 1;
}

void SchedulingProblem::repair(std::vector<int>& genome) const {
  const int max_qpu = static_cast<int>(qpu_count_) - 1;
  for (std::size_t j = 0; j < genome.size(); ++j) {
    const int gene = std::clamp(genome[j], 0, max_qpu);
    genome[j] = gene;
    if (feasible_on(j, gene)) continue;
    // Snap to the nearest feasible QPU index (deterministic: the lower
    // index wins a tie).
    int best = feasible_[j].front();
    int best_dist = std::abs(best - gene);
    for (int q : feasible_[j]) {
      const int d = std::abs(q - gene);
      if (d < best_dist) {
        best = q;
        best_dist = d;
      }
    }
    genome[j] = best;
  }
}

void SchedulingProblem::evaluate(const std::vector<int>& genome,
                                 std::vector<double>& objectives) const {
  const std::size_t n = input_->jobs.size();
  if (genome.size() != n) throw std::invalid_argument("SchedulingProblem: genome size");

  // Eq. 1, computed in O(N + Q): the co-assignment sum
  //   sum_k t_k [x_i == x_k]
  // is the per-QPU total execution time of the assignment.
  constexpr std::size_t kStackQpus = 64;
  double stack_exec[kStackQpus];
  std::vector<double> heap_exec;
  double* qpu_exec = stack_exec;
  if (qpu_count_ > kStackQpus) {
    heap_exec.assign(qpu_count_, 0.0);
    qpu_exec = heap_exec.data();
  } else {
    std::fill_n(stack_exec, qpu_count_, 0.0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    const int q = genome[k];
    qpu_exec[q] += exec_seconds_[cell(k, q)];
  }
  double jct_sum = 0.0;
  double error_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int q = genome[i];
    jct_sum += queue_wait_[static_cast<std::size_t>(q)] + qpu_exec[q];
    error_sum += 1.0 - fidelity_[cell(i, q)];
  }
  objectives.resize(2);
  objectives[0] = jct_sum / static_cast<double>(n);
  objectives[1] = error_sum / static_cast<double>(n);
}

double SchedulingProblem::mean_execution_time(const std::vector<int>& genome) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < genome.size(); ++i) acc += exec_seconds_[cell(i, genome[i])];
  return acc / static_cast<double>(genome.size());
}

}  // namespace qon::sched
