// Micro-benchmark: NSGA-II scheduling-core throughput. Supports the §7
// complexity claim that one Eq. 1 evaluation is O(N) in the number of jobs
// and independent of the number of QPUs, times it one genome at a time and
// four genomes per pass (an offspring batch), and times one full scheduling
// cycle, averaged over 16 NSGA-II seeds, at the two batch sizes the
// end-to-end benchmark produces and on a burst-shaped batch.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "moo/nsga2.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "sched/problem.hpp"

namespace {

using namespace qon;

sched::SchedulingInput make_input(std::size_t jobs, std::size_t qpus) {
  Rng rng(3);
  sched::SchedulingInput input;
  for (std::size_t q = 0; q < qpus; ++q) {
    input.qpus.push_back({"q" + std::to_string(q), 27, rng.uniform(0.0, 500.0), true});
  }
  for (std::size_t j = 0; j < jobs; ++j) {
    sched::QuantumJob job;
    job.id = j;
    job.qubits = static_cast<int>(rng.uniform_int(2, 24));
    for (std::size_t q = 0; q < qpus; ++q) {
      job.est_fidelity.push_back(rng.uniform(0.2, 0.95));
      job.est_exec_seconds.push_back(rng.uniform(1.0, 10.0));
    }
    input.jobs.push_back(std::move(job));
  }
  return input;
}

// One NSGA-II offspring batch: 64 repaired random genomes.
std::vector<std::vector<int>> make_genomes(const sched::SchedulingProblem& problem,
                                           std::size_t jobs) {
  Rng rng(5);
  std::vector<std::vector<int>> genomes(64, std::vector<int>(jobs));
  for (auto& genome : genomes) {
    for (auto& g : genome) g = static_cast<int>(rng.uniform_int(0, 7));
    problem.repair(genome);
  }
  return genomes;
}

// Eq. 1 one genome at a time (evaluate()). Counter: wall seconds per genome.
void BM_Eq1Evaluation(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)), 8);
  const sched::SchedulingProblem problem(input);
  const auto genomes = make_genomes(problem, input.jobs.size());
  std::vector<double> objectives;
  std::size_t k = 0;
  for (auto _ : state) {
    problem.evaluate(genomes[k], objectives);
    benchmark::DoNotOptimize(objectives.data());
    k = (k + 1) % genomes.size();
  }
  state.SetComplexityN(state.range(0));
  state.counters["s_per_genome"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_Eq1Evaluation)->RangeMultiplier(2)->Range(32, 512)->Complexity(benchmark::oN);

// The same 64 genomes per iteration through evaluate_batch(), which runs
// Eq. 1 on four genomes per pass. Counter: wall seconds per genome, to set
// beside BM_Eq1Evaluation's.
void BM_Eq1EvaluationBatch(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)), 8);
  const sched::SchedulingProblem problem(input);
  const auto genomes = make_genomes(problem, input.jobs.size());
  std::vector<std::vector<double>> objectives(genomes.size());
  std::vector<const std::vector<int>*> genome_ptrs;
  std::vector<std::vector<double>*> objective_ptrs;
  for (std::size_t k = 0; k < genomes.size(); ++k) {
    genome_ptrs.push_back(&genomes[k]);
    objective_ptrs.push_back(&objectives[k]);
  }
  for (auto _ : state) {
    problem.evaluate_batch(genome_ptrs, objective_ptrs);
    benchmark::DoNotOptimize(objectives.data());
    benchmark::ClobberMemory();
  }
  state.counters["s_per_genome"] =
      benchmark::Counter(static_cast<double>(state.iterations() * genomes.size()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_Eq1EvaluationBatch)->RangeMultiplier(2)->Range(32, 512);

void BM_Nsga2FullRun(benchmark::State& state) {
  const auto input = make_input(static_cast<std::size_t>(state.range(0)), 8);
  const sched::SchedulingProblem problem(input);
  moo::Nsga2Config config;
  config.population_size = 48;
  config.max_generations = 32;
  config.seed = 11;
  for (auto _ : state) {
    const auto result = moo::nsga2(problem, config);
    benchmark::DoNotOptimize(result.front.data());
  }
}

BENCHMARK(BM_Nsga2FullRun)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

// Burst-shaped batch: 500 runs of 4 images (4 qubits each) on 8 QPUs. Runs
// of one image share their per-QPU estimates (one cached prep), and each
// run carries its own fidelity weight, as in a mixed-tenant burst.
sched::SchedulingInput make_burst_input() {
  Rng rng(9);
  sched::SchedulingInput input;
  for (std::size_t q = 0; q < 8; ++q) {
    sched::QpuState qpu;
    qpu.name = "q";
    qpu.name += std::to_string(q);
    qpu.size = 27;
    qpu.queue_wait_seconds = rng.uniform(0.0, 60.0);
    input.qpus.push_back(qpu);
  }
  constexpr std::size_t kKinds = 4;
  std::vector<std::vector<double>> fidelity(kKinds);
  std::vector<std::vector<double>> exec_seconds(kKinds);
  for (std::size_t k = 0; k < kKinds; ++k) {
    for (std::size_t q = 0; q < input.qpus.size(); ++q) {
      fidelity[k].push_back(rng.uniform(0.55, 0.95));
      exec_seconds[k].push_back(rng.uniform(0.5, 4.0));
    }
  }
  const double weights[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  for (std::size_t j = 0; j < 500; ++j) {
    sched::QuantumJob job;
    job.id = j;
    job.qubits = 4;
    job.fidelity_weight = weights[rng.uniform_int(0, 4)];
    job.est_fidelity = fidelity[j % kKinds];
    job.est_exec_seconds = exec_seconds[j % kKinds];
    input.jobs.push_back(std::move(job));
  }
  return input;
}

// Each iteration runs schedule_cycle with the default SchedulerConfig once
// per fixed NSGA-II seed, so the time is a seed average rather than one
// seed's luck (the tolerance test stops a run after a seed-dependent number
// of generations). Counters: wall seconds per cycle, evaluations per second
// and mean generations per cycle.
void run_cycles(benchmark::State& state, const sched::SchedulingInput& input) {
  constexpr std::uint64_t kSeeds = 16;
  sched::SchedulerConfig config;
  double evaluations = 0.0;
  double generations = 0.0;
  for (auto _ : state) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      config.nsga2.seed = seed;
      const auto decision = sched::schedule_cycle(input, config);
      benchmark::DoNotOptimize(decision.assignment.data());
      evaluations += static_cast<double>(decision.nsga2_evaluations);
      generations += static_cast<double>(decision.nsga2_generations);
    }
  }
  const double cycles = static_cast<double>(state.iterations() * kSeeds);
  state.counters["s_per_cycle"] =
      benchmark::Counter(cycles, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["evals_per_s"] = benchmark::Counter(evaluations, benchmark::Counter::kIsRate);
  state.counters["generations"] = generations / cycles;
}

// 8-QPU fleet; 31 jobs is open_fresh's timer cycle, 500 is burst_analytic's
// batch size.
void BM_ScheduleCycle(benchmark::State& state) {
  run_cycles(state, make_input(static_cast<std::size_t>(state.range(0)), 8));
}

BENCHMARK(BM_ScheduleCycle)->Arg(31)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_BurstCycle(benchmark::State& state) { run_cycles(state, make_burst_input()); }

BENCHMARK(BM_BurstCycle)->Unit(benchmark::kMillisecond);

// Front sort of one merged NSGA-II population (2 x 64) of two-objective
// points.
void BM_FastNonDominatedSort(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::vector<double>> objectives(static_cast<std::size_t>(state.range(0)));
  for (auto& point : objectives) point = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 1.0)};
  for (auto _ : state) {
    const auto ranks = moo::fast_non_dominated_sort(objectives);
    benchmark::DoNotOptimize(ranks.data());
  }
}

BENCHMARK(BM_FastNonDominatedSort)->Arg(128)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
