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

int SchedulingProblem::repair_gene(std::size_t job, int qpu) const {
  const int gene = std::clamp(qpu, 0, static_cast<int>(qpu_count_) - 1);
  if (feasible_on(job, gene)) return gene;
  // Snap to the nearest feasible QPU index (deterministic: the lower index
  // wins a tie).
  int best = feasible_[job].front();
  int best_dist = std::abs(best - gene);
  for (int q : feasible_[job]) {
    const int d = std::abs(q - gene);
    if (d < best_dist) {
      best = q;
      best_dist = d;
    }
  }
  return best;
}

// Eq. 1, computed in O(N + Q) per genome: the co-assignment sum
//   sum_k t_k [x_i == x_k]
// is the per-QPU total execution time of the assignment. The lanes are
// independent genomes interleaved job by job: each lane adds in the same
// order as a lone evaluation, so its result is bit-identical to Lanes = 1,
// and the lanes' dependent add chains overlap in the pipeline.
template <std::size_t Lanes>
void SchedulingProblem::eq1(const std::vector<int>* const* genomes,
                            std::vector<double>* const* objectives) const {
  const std::size_t n = input_->jobs.size();
  const int* gene[Lanes];
  for (std::size_t l = 0; l < Lanes; ++l) {
    if (genomes[l]->size() != n) throw std::invalid_argument("SchedulingProblem: genome size");
    gene[l] = genomes[l]->data();
  }

  // Per-lane, per-QPU execution totals: lane l's row starts at l * Q.
  constexpr std::size_t kStackQpus = 64;
  double stack_exec[Lanes * kStackQpus];
  std::vector<double> heap_exec;
  double* qpu_exec = stack_exec;
  if (qpu_count_ > kStackQpus) {
    heap_exec.assign(Lanes * qpu_count_, 0.0);
    qpu_exec = heap_exec.data();
  } else {
    std::fill_n(stack_exec, Lanes * qpu_count_, 0.0);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      const int q = gene[l][k];
      qpu_exec[l * qpu_count_ + static_cast<std::size_t>(q)] += exec_seconds_[cell(k, q)];
    }
  }
  // Job i's JCT is queue_wait[q] + qpu_exec[q] for its QPU q: one value per
  // (lane, QPU), computed once instead of once per job.
  for (std::size_t l = 0; l < Lanes; ++l) {
    for (std::size_t q = 0; q < qpu_count_; ++q) qpu_exec[l * qpu_count_ + q] += queue_wait_[q];
  }
  double jct_sum[Lanes];
  double error_sum[Lanes];
  std::fill_n(jct_sum, Lanes, 0.0);
  std::fill_n(error_sum, Lanes, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      const int q = gene[l][i];
      jct_sum[l] += qpu_exec[l * qpu_count_ + static_cast<std::size_t>(q)];
      error_sum[l] += 1.0 - fidelity_[cell(i, q)];
    }
  }
  for (std::size_t l = 0; l < Lanes; ++l) {
    std::vector<double>& out = *objectives[l];
    out.resize(2);
    out[0] = jct_sum[l] / static_cast<double>(n);
    out[1] = error_sum[l] / static_cast<double>(n);
  }
}

void SchedulingProblem::evaluate(const std::vector<int>& genome,
                                 std::vector<double>& objectives) const {
  const std::vector<int>* g = &genome;
  std::vector<double>* o = &objectives;
  eq1<1>(&g, &o);
}

void SchedulingProblem::evaluate_batch(std::span<const std::vector<int>* const> genomes,
                                       std::span<std::vector<double>* const> objectives) const {
  if (genomes.size() != objectives.size()) {
    throw std::invalid_argument("SchedulingProblem: evaluate_batch span sizes differ");
  }
  constexpr std::size_t kLanes = 4;
  std::size_t k = 0;
  for (; k + kLanes <= genomes.size(); k += kLanes) {
    eq1<kLanes>(genomes.data() + k, objectives.data() + k);
  }
  for (; k < genomes.size(); ++k) eq1<1>(genomes.data() + k, objectives.data() + k);
}

double SchedulingProblem::mean_execution_time(const std::vector<int>& genome) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < genome.size(); ++i) acc += exec_seconds_[cell(i, genome[i])];
  return acc / static_cast<double>(genome.size());
}

}  // namespace qon::sched
