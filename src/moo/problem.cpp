#include "moo/problem.hpp"

#include <algorithm>
#include <stdexcept>

namespace qon::moo {

void IntegerProblem::evaluate_batch(std::span<const std::vector<int>* const> genomes,
                                    std::span<std::vector<double>* const> objectives) const {
  if (genomes.size() != objectives.size()) {
    throw std::invalid_argument("IntegerProblem: evaluate_batch span sizes differ");
  }
  for (std::size_t k = 0; k < genomes.size(); ++k) evaluate(*genomes[k], *objectives[k]);
}

int IntegerProblem::repair_gene(std::size_t i, int value) const {
  return std::clamp(value, lower_bound(i), upper_bound(i));
}

void IntegerProblem::repair(std::vector<int>& genome) const {
  for (std::size_t i = 0; i < genome.size(); ++i) genome[i] = repair_gene(i, genome[i]);
}

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly_better = false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m] > b[m]) return false;
    if (a[m] < b[m]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<std::vector<double>>& objectives) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < objectives.size() && !dominated; ++j) {
      if (i != j && dominates(objectives[j], objectives[i])) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace qon::moo
