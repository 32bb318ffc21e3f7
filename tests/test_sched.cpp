// Tests for the hybrid scheduler: the Eq. 1 problem encoding, the three
// scheduling stages, MCDM priorities, triggers, baselines and the classical
// filter/score scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "common/rng.hpp"
#include "sched/baselines.hpp"
#include "sched/classical_scheduler.hpp"
#include "sched/hybrid_scheduler.hpp"
#include "sched/problem.hpp"
#include "sched/triggers.hpp"

namespace qon::sched {
namespace {

// Builds a synthetic input: `n` jobs over `q` QPUs with seeded random
// estimates. QPU 0 is the high-fidelity hotspot; later QPUs are faster to
// access but noisier, giving a genuine fidelity-JCT tradeoff.
SchedulingInput make_input(std::size_t n, std::size_t q, std::uint64_t seed,
                           int max_job_qubits = 20) {
  Rng rng(seed);
  SchedulingInput input;
  for (std::size_t i = 0; i < q; ++i) {
    QpuState state;
    state.name = "qpu" + std::to_string(i);
    state.size = 27;
    state.queue_wait_seconds = rng.uniform(0.0, 300.0);
    input.qpus.push_back(state);
  }
  for (std::size_t j = 0; j < n; ++j) {
    QuantumJob job;
    job.id = j;
    job.qubits = static_cast<int>(rng.uniform_int(2, max_job_qubits));
    job.shots = 4000;
    for (std::size_t i = 0; i < q; ++i) {
      // Fidelity decays with QPU index; execution time is similar.
      const double fid = 0.95 - 0.06 * static_cast<double>(i) - rng.uniform(0.0, 0.05);
      job.est_fidelity.push_back(std::max(0.1, fid));
      job.est_exec_seconds.push_back(rng.uniform(2.0, 10.0));
    }
    input.jobs.push_back(job);
  }
  return input;
}

TEST(Problem, Eq1HandExample) {
  // 2 jobs, 2 QPUs. Assignment {0, 0}: both on QPU0.
  SchedulingInput input;
  input.qpus = {{"a", 27, 100.0, true}, {"b", 27, 0.0, true}};
  QuantumJob j0;
  j0.id = 0;
  j0.qubits = 5;
  j0.est_fidelity = {0.9, 0.8};
  j0.est_exec_seconds = {10.0, 12.0};
  QuantumJob j1 = j0;
  j1.id = 1;
  j1.est_fidelity = {0.7, 0.6};
  j1.est_exec_seconds = {20.0, 24.0};
  input.jobs = {j0, j1};

  SchedulingProblem problem(input);
  std::vector<double> objectives;
  // Both on QPU a: per Eq. 1 each job's JCT = w_a + (t0 + t1) = 100 + 30.
  problem.evaluate({0, 0}, objectives);
  EXPECT_NEAR(objectives[0], 130.0, 1e-12);
  EXPECT_NEAR(objectives[1], 1.0 - 0.8, 1e-12);  // mean error of {0.9, 0.7}

  // Split {0, 1}: j0 on a (100 + 10), j1 on b (0 + 24); mean = 67.
  problem.evaluate({0, 1}, objectives);
  EXPECT_NEAR(objectives[0], 67.0, 1e-12);
  EXPECT_NEAR(objectives[1], 1.0 - (0.9 + 0.6) / 2.0, 1e-12);
}

TEST(Problem, RepairSnapsToFeasibleQpu) {
  SchedulingInput input;
  input.qpus = {{"small", 5, 0.0, true}, {"big", 27, 0.0, true}};
  QuantumJob job;
  job.id = 0;
  job.qubits = 10;  // only fits "big"
  job.est_fidelity = {0.9, 0.9};
  job.est_exec_seconds = {1.0, 1.0};
  input.jobs = {job};
  SchedulingProblem problem(input);
  std::vector<int> genome = {0};
  problem.repair(genome);
  EXPECT_EQ(genome[0], 1);
}

TEST(Problem, OfflineQpusExcluded) {
  SchedulingInput input;
  input.qpus = {{"a", 27, 0.0, false}, {"b", 27, 0.0, true}};  // a reserved
  QuantumJob job;
  job.id = 0;
  job.qubits = 5;
  job.est_fidelity = {0.99, 0.5};
  job.est_exec_seconds = {1.0, 1.0};
  input.jobs = {job};
  SchedulingProblem problem(input);
  std::vector<int> genome = {0};
  problem.repair(genome);
  EXPECT_EQ(genome[0], 1);  // snapped off the reserved QPU
}

TEST(Problem, RepairSnapsToNearestFeasibleOnMixedFleet) {
  // Mixed sizes, QPU 1 offline, and one job whose time estimate makes QPU 5
  // infeasible. Sizes by index: 5, 27 (offline), 10, 16, 7, 27.
  SchedulingInput input;
  input.qpus = {{"q0", 5, 0.0, true},  {"q1", 27, 0.0, false}, {"q2", 10, 0.0, true},
                {"q3", 16, 0.0, true}, {"q4", 7, 0.0, true},   {"q5", 27, 0.0, true}};
  const int qubits[] = {12, 6, 20, 3, 8};
  for (std::size_t j = 0; j < std::size(qubits); ++j) {
    QuantumJob job;
    job.id = j;
    job.qubits = qubits[j];
    job.est_fidelity.assign(6, 0.9);
    job.est_exec_seconds.assign(6, 1.0);
    input.jobs.push_back(job);
  }
  input.jobs[4].est_exec_seconds[5] = kInfeasibleTime;  // 8 qubits: only q2, q3
  const SchedulingProblem problem(input);

  // Hand-checked cases; a tie between two feasible QPUs goes to the lower
  // index, and out-of-range genes are clamped to [0, 5] first.
  std::vector<int> genome = {4, 1, 0, 1, 5};
  problem.repair(genome);
  EXPECT_EQ(genome, (std::vector<int>{3, 2, 5, 0, 3}));
  genome = {-7, 99, 99, 2, -1};
  problem.repair(genome);
  EXPECT_EQ(genome, (std::vector<int>{3, 5, 5, 2, 2}));

  // Every gene, over many random genomes: the nearest feasible QPU to the
  // clamped gene, lower index on a tie.
  auto feasible = [&input](std::size_t j, int q) {
    const auto& qpu = input.qpus[static_cast<std::size_t>(q)];
    return qpu.online && input.jobs[j].qubits <= qpu.size &&
           std::isfinite(input.jobs[j].est_exec_seconds[static_cast<std::size_t>(q)]);
  };
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> raw(input.jobs.size());
    for (auto& g : raw) g = static_cast<int>(rng.uniform_int(-3, 8));
    genome = raw;
    problem.repair(genome);
    for (std::size_t j = 0; j < raw.size(); ++j) {
      const int clamped = std::clamp(raw[j], 0, 5);
      int expected = -1;
      for (int q = 0; q < 6; ++q) {
        if (feasible(j, q) &&
            (expected < 0 || std::abs(q - clamped) < std::abs(expected - clamped))) {
          expected = q;
        }
      }
      EXPECT_EQ(genome[j], expected) << "job " << j << " gene " << raw[j];
    }
  }
}

TEST(Problem, EvaluateMatchesDirectEq1) {
  // 8 QPUs fit evaluate()'s stack buffer; 80 take its heap path.
  for (const std::size_t qpus : {std::size_t{8}, std::size_t{80}}) {
    const auto input = make_input(60, qpus, 29);
    const SchedulingProblem problem(input);
    Rng rng(31);
    std::vector<double> objectives;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int> genome(input.jobs.size());
      for (auto& g : genome) g = static_cast<int>(rng.uniform_int(0, qpus - 1));
      problem.evaluate(genome, objectives);
      // Eq. 1 term by term: JCT_i = w_{x_i} + sum_k t_k [x_i == x_k].
      double jct = 0.0;
      double error = 0.0;
      for (std::size_t i = 0; i < genome.size(); ++i) {
        const auto q = static_cast<std::size_t>(genome[i]);
        double co_assigned = 0.0;
        for (std::size_t k = 0; k < genome.size(); ++k) {
          if (genome[k] == genome[i]) co_assigned += input.jobs[k].est_exec_seconds[q];
        }
        jct += input.qpus[q].queue_wait_seconds + co_assigned;
        error += 1.0 - input.jobs[i].est_fidelity[q];
      }
      const auto n = static_cast<double>(genome.size());
      ASSERT_EQ(objectives.size(), 2u);
      EXPECT_NEAR(objectives[0], jct / n, 1e-9 * jct / n) << qpus << " QPUs";
      EXPECT_NEAR(objectives[1], error / n, 1e-12) << qpus << " QPUs";
    }
  }
}

TEST(Problem, BatchEvaluationMatchesSingleBitForBit) {
  // 8 QPUs fit the stack buffer; 65 take the heap path. Batch sizes that are
  // not multiples of 4 exercise the one-genome tail.
  for (const std::size_t qpus : {std::size_t{8}, std::size_t{65}}) {
    const auto input = make_input(37, qpus, 83);
    const SchedulingProblem problem(input);
    Rng rng(89);
    for (const std::size_t count : {1, 3, 4, 5, 7, 9, 13, 64}) {
      std::vector<std::vector<int>> genomes(count, std::vector<int>(input.jobs.size()));
      for (auto& genome : genomes) {
        for (auto& g : genome) g = static_cast<int>(rng.uniform_int(0, qpus - 1));
      }
      std::vector<std::vector<double>> batch(count);
      std::vector<const std::vector<int>*> genome_ptrs;
      std::vector<std::vector<double>*> objective_ptrs;
      for (std::size_t k = 0; k < count; ++k) {
        genome_ptrs.push_back(&genomes[k]);
        objective_ptrs.push_back(&batch[k]);
      }
      problem.evaluate_batch(genome_ptrs, objective_ptrs);
      for (std::size_t k = 0; k < count; ++k) {
        std::vector<double> single;
        problem.evaluate(genomes[k], single);
        ASSERT_EQ(batch[k].size(), 2u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[k][0]), std::bit_cast<std::uint64_t>(single[0]))
            << qpus << " QPUs, batch of " << count << ", genome " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[k][1]), std::bit_cast<std::uint64_t>(single[1]))
            << qpus << " QPUs, batch of " << count << ", genome " << k;
      }
    }
  }
}

TEST(Problem, ThrowsWhenJobFitsNowhere) {
  SchedulingInput input;
  input.qpus = {{"tiny", 3, 0.0, true}};
  QuantumJob job;
  job.id = 0;
  job.qubits = 10;
  job.est_fidelity = {0.9};
  job.est_exec_seconds = {1.0};
  input.jobs = {job};
  EXPECT_THROW(SchedulingProblem{input}, std::invalid_argument);
}

TEST(Preprocess, FiltersOversizedJobs) {
  SchedulingInput input;
  input.qpus = {{"a", 10, 0.0, true}};
  QuantumJob fits;
  fits.id = 0;
  fits.qubits = 8;
  fits.est_fidelity = {0.9};
  fits.est_exec_seconds = {1.0};
  QuantumJob too_big = fits;
  too_big.id = 1;
  too_big.qubits = 20;
  input.jobs = {fits, too_big};
  const auto pre = preprocess_jobs(input);
  EXPECT_EQ(pre.compact.jobs.size(), 1u);
  EXPECT_EQ(pre.kept_indices, (std::vector<std::size_t>{0}));
  EXPECT_EQ(pre.filtered_indices, (std::vector<std::size_t>{1}));
}

TEST(Scheduler, AssignsEveryFeasibleJob) {
  const auto input = make_input(40, 4, 7);
  SchedulerConfig config;
  config.nsga2.seed = 3;
  const auto decision = schedule_cycle(input, config);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    ASSERT_GE(decision.assignment[j], 0) << "job " << j;
    ASSERT_LT(decision.assignment[j], 4);
    // Capacity constraint honored.
    EXPECT_LE(input.jobs[j].qubits,
              input.qpus[static_cast<std::size_t>(decision.assignment[j])].size);
  }
  EXPECT_FALSE(decision.pareto_front.empty());
  EXPECT_GT(decision.optimize_seconds, 0.0);
}

TEST(Scheduler, FidelityPriorityRaisesFidelity) {
  const auto input = make_input(60, 4, 11);
  SchedulerConfig jct_config;
  jct_config.fidelity_weight = 0.0;
  jct_config.nsga2.seed = 5;
  SchedulerConfig fid_config;
  fid_config.fidelity_weight = 1.0;
  fid_config.nsga2.seed = 5;
  const auto jct_decision = schedule_cycle(input, jct_config);
  const auto fid_decision = schedule_cycle(input, fid_config);
  EXPECT_GE(fid_decision.chosen.mean_fidelity(), jct_decision.chosen.mean_fidelity());
  EXPECT_LE(jct_decision.chosen.mean_jct, fid_decision.chosen.mean_jct);
}

TEST(Scheduler, BalancedSitsBetweenExtremes) {
  const auto input = make_input(60, 4, 13);
  SchedulerConfig balanced;
  balanced.fidelity_weight = 0.5;
  balanced.nsga2.seed = 9;
  const auto decision = schedule_cycle(input, balanced);
  // The chosen point lies inside the front's bounding box.
  double min_jct = decision.pareto_front[0].mean_jct;
  double max_jct = min_jct;
  for (const auto& p : decision.pareto_front) {
    min_jct = std::min(min_jct, p.mean_jct);
    max_jct = std::max(max_jct, p.mean_jct);
  }
  EXPECT_GE(decision.chosen.mean_jct, min_jct - 1e-9);
  EXPECT_LE(decision.chosen.mean_jct, max_jct + 1e-9);
}

// The per-job QoS acceptance scenario: the same batch submitted twice with
// opposite per-job fidelity_weight preferences produces measurably
// different placements — higher mean estimated fidelity / lower mean JCT
// respectively.
TEST(Scheduler, OppositePerJobPreferencesShiftPlacements) {
  auto fid_input = make_input(60, 4, 11);
  auto jct_input = fid_input;
  for (auto& job : fid_input.jobs) job.fidelity_weight = 1.0;
  for (auto& job : jct_input.jobs) job.fidelity_weight = 0.0;
  SchedulerConfig config;  // the cycle default (0.5) is overridden per job
  config.nsga2.seed = 5;
  const auto fid_decision = schedule_cycle(fid_input, config);
  const auto jct_decision = schedule_cycle(jct_input, config);
  EXPECT_GT(fid_decision.chosen.mean_fidelity(), jct_decision.chosen.mean_fidelity());
  EXPECT_LT(jct_decision.chosen.mean_jct, fid_decision.chosen.mean_jct);
}

// Heterogeneous preferences inside ONE cycle: each job takes its placement
// from the Pareto point matching its own weight, so fidelity-preferring
// tenants land on higher-fidelity QPUs than JCT-preferring tenants sharing
// the batch.
TEST(Scheduler, MixedPreferencesInOneCycleServePerJobTradeoffs) {
  auto input = make_input(40, 4, 43);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    input.jobs[j].fidelity_weight = (j % 2 == 0) ? 0.95 : 0.05;
  }
  SchedulerConfig config;
  config.nsga2.seed = 7;
  const auto decision = schedule_cycle(input, config);
  double fid_pref_mean = 0.0;
  double jct_pref_mean = 0.0;
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    ASSERT_GE(decision.assignment[j], 0);
    const auto q = static_cast<std::size_t>(decision.assignment[j]);
    (j % 2 == 0 ? fid_pref_mean : jct_pref_mean) += input.jobs[j].est_fidelity[q];
  }
  fid_pref_mean /= 20.0;
  jct_pref_mean /= 20.0;
  EXPECT_GT(fid_pref_mean, jct_pref_mean);
}

TEST(Scheduler, RejectsBadPerJobWeight) {
  auto input = make_input(5, 2, 19);
  input.jobs[2].fidelity_weight = 1.5;
  SchedulerConfig config;
  EXPECT_THROW(schedule_cycle(input, config), std::invalid_argument);
}

TEST(Scheduler, UniformPerJobWeightMatchesCycleGlobalWeight) {
  // Jobs all carrying the config default must reproduce the pre-QoS
  // decision bit for bit (the uniform fast path).
  const auto plain = make_input(30, 4, 47);
  auto tagged = plain;
  for (auto& job : tagged.jobs) job.fidelity_weight = 0.5;
  SchedulerConfig config;
  config.fidelity_weight = 0.5;
  config.nsga2.seed = 13;
  const auto a = schedule_cycle(plain, config);
  const auto b = schedule_cycle(tagged, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.chosen.mean_jct, b.chosen.mean_jct);
}

TEST(Scheduler, FiltersJobsThatFitNowhere) {
  auto input = make_input(10, 2, 17);
  input.jobs[3].qubits = 100;  // fits nothing
  SchedulerConfig config;
  const auto decision = schedule_cycle(input, config);
  EXPECT_EQ(decision.assignment[3], -1);
  EXPECT_EQ(decision.filtered_jobs, (std::vector<std::size_t>{3}));
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    if (j != 3) {
      EXPECT_GE(decision.assignment[j], 0);
    }
  }
}

TEST(Scheduler, SameSeedCyclesAreIdentical) {
  // The benchmark's cycle sizes: ~31-job timer cycles and 500-job bursts.
  for (const std::size_t jobs : {std::size_t{31}, std::size_t{500}}) {
    const auto input = make_input(jobs, 8, 43);
    const SchedulerConfig config;
    const auto a = schedule_cycle(input, config);
    const auto b = schedule_cycle(input, config);
    EXPECT_EQ(a.assignment, b.assignment) << jobs << " jobs";
    ASSERT_EQ(a.pareto_front.size(), b.pareto_front.size()) << jobs << " jobs";
    for (std::size_t i = 0; i < a.pareto_front.size(); ++i) {
      EXPECT_EQ(a.pareto_front[i].mean_jct, b.pareto_front[i].mean_jct);
      EXPECT_EQ(a.pareto_front[i].mean_error, b.pareto_front[i].mean_error);
    }
    EXPECT_EQ(a.chosen.mean_jct, b.chosen.mean_jct);
    EXPECT_EQ(a.nsga2_evaluations, b.nsga2_evaluations);
  }
}

// Burst-shaped batch: 500 jobs of 4 kinds (4 qubits each) on 8 QPUs. Jobs
// of one kind share their per-QPU estimates, and each job carries its own
// fidelity weight, as in a mixed-tenant burst.
SchedulingInput make_burst_input() {
  Rng rng(9);
  SchedulingInput input;
  for (std::size_t q = 0; q < 8; ++q) {
    QpuState qpu;
    qpu.name = "q" + std::to_string(q);
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
    QuantumJob job;
    job.id = j;
    job.qubits = 4;
    job.fidelity_weight = weights[rng.uniform_int(0, 4)];
    job.est_fidelity = fidelity[j % kKinds];
    job.est_exec_seconds = exec_seconds[j % kKinds];
    input.jobs.push_back(std::move(job));
  }
  return input;
}

// 64-bit FNV-1a over raw bytes.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  }
};

// The scheduling kernel's exact output on fixed inputs. Any change to
// NSGA-II's draws, arithmetic or sort inputs moves at least one of them. A
// speed-up of the kernel must leave every value unchanged; a change to the
// RNG stream re-pins them and is judged on schedule quality instead
// (bench_nsga2_quality, bench_fig8ab_scheduler_tradeoff).
TEST(ScheduleCycle, SeededOutputsArePinned) {
  auto mixed = make_input(40, 6, 71, 24);
  mixed.qpus[2].online = false;
  mixed.jobs[5].qubits = 30;  // fits nowhere: filtered
  const double weights[] = {0.05, 0.5, 0.95};
  for (std::size_t j = 0; j < mixed.jobs.size(); ++j) {
    if (j % 4 != 3) mixed.jobs[j].fidelity_weight = weights[j % 3];
  }
  struct Case {
    const char* name;
    SchedulingInput input;
  };
  const Case cases[] = {{"1 job", make_input(1, 4, 61)},
                        {"23 jobs", make_input(23, 8, 67)},
                        {"burst 500", make_burst_input()},
                        {"mixed offline", mixed}};
  struct Pinned {
    std::uint64_t assignment_hash;
    std::uint64_t front_hash;
    std::size_t generations;
  };
  const Pinned expected[4][4] = {
      {{0xad2aca7747985764ULL, 0x13cb642729c77099ULL, 6},
       {0xad2aca7747985764ULL, 0x13cb642729c77099ULL, 6},
       {0xad2aca7747985764ULL, 0x13cb642729c77099ULL, 6},
       {0xad2aca7747985764ULL, 0x13cb642729c77099ULL, 6}},
      {{0x66e9535e79ac0357ULL, 0xc1f0d8d259aea97fULL, 14},
       {0xd44e0128888acd06ULL, 0xfb53b0f2315dcb15ULL, 14},
       {0x11607b4901270a54ULL, 0x617f5758c3e532d1ULL, 12},
       {0x518cc62ada49f4c5ULL, 0x6e99fd5cb406c6c6ULL, 15}},
      {{0xe26ae773485a9815ULL, 0x3d5de206db405befULL, 6},
       {0xe47387eef598a910ULL, 0x28f92c0f632c39c4ULL, 6},
       {0x16eb3f4a681d01f1ULL, 0x78ad476276e7bc64ULL, 6},
       {0xc282da2e7c6ef6b2ULL, 0x2236662d67d0d9f8ULL, 6}},
      {{0x1b3114e0d0be52a4ULL, 0xe5c941b7606ce3caULL, 6},
       {0x2d2d5e2c7456b944ULL, 0x719c8604d249ae0dULL, 8},
       {0xc2596fe3d6991ea3ULL, 0x9b3eb47902b263c7ULL, 6},
       {0xd8daed80804399f4ULL, 0x3614e1f7f20c6f63ULL, 6}},
  };
  const std::uint64_t seeds[] = {1, 2, 17, 4242};
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    for (std::size_t s = 0; s < std::size(seeds); ++s) {
      SchedulerConfig config;
      config.nsga2.seed = seeds[s];
      const auto decision = schedule_cycle(cases[c].input, config);
      Fnv1a assignment;
      for (const int q : decision.assignment) assignment.bytes(&q, sizeof q);
      Fnv1a front;
      for (const auto& point : decision.pareto_front) {
        front.bytes(&point.mean_jct, sizeof point.mean_jct);
        front.bytes(&point.mean_error, sizeof point.mean_error);
      }
      const Pinned& want = expected[c][s];
      EXPECT_EQ(assignment.h, want.assignment_hash) << cases[c].name << ", seed " << seeds[s];
      EXPECT_EQ(front.h, want.front_hash) << cases[c].name << ", seed " << seeds[s];
      EXPECT_EQ(decision.nsga2_generations, want.generations)
          << cases[c].name << ", seed " << seeds[s];
    }
  }
}

TEST(Scheduler, EmptyPendingReturnsEmptyDecision) {
  SchedulingInput input;
  input.qpus = {{"a", 27, 0.0, true}};
  SchedulerConfig config;
  const auto decision = schedule_cycle(input, config);
  EXPECT_TRUE(decision.assignment.empty());
  EXPECT_TRUE(decision.pareto_front.empty());
}

TEST(Scheduler, RejectsBadWeight) {
  const auto input = make_input(5, 2, 19);
  SchedulerConfig config;
  config.fidelity_weight = 1.5;
  EXPECT_THROW(schedule_cycle(input, config), std::invalid_argument);
}

TEST(Baselines, BestFidelityConcentratesLoad) {
  const auto input = make_input(50, 4, 23);
  const auto assignment = assign_best_fidelity_fcfs(input);
  // The synthetic input makes QPU 0 the clear fidelity winner.
  std::size_t on_qpu0 = 0;
  for (int a : assignment) {
    ASSERT_GE(a, 0);
    if (a == 0) ++on_qpu0;
  }
  EXPECT_GT(on_qpu0, 40u);  // hotspot behaviour (Fig. 2c)
}

TEST(Baselines, LeastBusySpreadsLoad) {
  auto input = make_input(40, 4, 29);
  for (auto& qpu : input.qpus) qpu.queue_wait_seconds = 0.0;
  const auto assignment = assign_least_busy(input);
  std::vector<std::size_t> counts(4, 0);
  for (int a : assignment) {
    ASSERT_GE(a, 0);
    ++counts[static_cast<std::size_t>(a)];
  }
  for (std::size_t q = 0; q < 4; ++q) {
    EXPECT_GT(counts[q], 3u) << "qpu " << q << " starved";
  }
}

TEST(Baselines, RandomRespectsFeasibility) {
  auto input = make_input(30, 3, 31);
  input.jobs[5].qubits = 100;
  const auto assignment = assign_random_feasible(input, 7);
  EXPECT_EQ(assignment[5], -1);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    if (j != 5) {
      EXPECT_GE(assignment[j], 0);
    }
  }
}

TEST(Trigger, FiresOnQueueThreshold) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_FALSE(trigger.should_fire(5.0, 9));
  EXPECT_TRUE(trigger.should_fire(5.0, 10));
}

TEST(Trigger, FiresOnTimer) {
  ScheduleTrigger trigger(100, 120.0);
  EXPECT_FALSE(trigger.should_fire(119.0, 1));
  EXPECT_TRUE(trigger.should_fire(120.0, 1));
  trigger.notify_fired(120.0);
  EXPECT_FALSE(trigger.should_fire(200.0, 1));
  EXPECT_TRUE(trigger.should_fire(240.0, 1));
}

TEST(Trigger, NeverFiresOnEmptyQueue) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_FALSE(trigger.should_fire(1000.0, 0));
}

TEST(Trigger, EmptyQueueStaysQuietEvenFarPastTheDeadline) {
  ScheduleTrigger trigger(1, 10.0);
  trigger.notify_fired(5.0);
  EXPECT_FALSE(trigger.should_fire(1e9, 0));  // nothing to schedule, no cycle
  EXPECT_TRUE(trigger.should_fire(1e9, 1));   // one job re-arms everything
}

TEST(Trigger, FiresExactlyAtTheTimerDeadline) {
  ScheduleTrigger trigger(100, 60.0);
  trigger.notify_fired(30.5);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 90.5);
  EXPECT_FALSE(trigger.should_fire(90.499, 1));
  EXPECT_TRUE(trigger.should_fire(90.5, 1));  // >=, not >: the boundary fires
}

TEST(Trigger, ThresholdFiringResetsTheTimer) {
  ScheduleTrigger trigger(5, 60.0);
  EXPECT_TRUE(trigger.should_fire(10.0, 5));  // threshold fire, timer not due
  trigger.notify_fired(10.0);
  EXPECT_FALSE(trigger.should_fire(69.9, 1));  // timer restarted at t=10
  EXPECT_TRUE(trigger.should_fire(70.0, 1));
}

TEST(Trigger, NextTimerDeadlineTracksRepeatedCycles) {
  ScheduleTrigger trigger(10, 120.0);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 120.0);
  trigger.notify_fired(50.0);
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 170.0);
  trigger.notify_fired(250.0);  // a late threshold fire still resets fully
  EXPECT_DOUBLE_EQ(trigger.next_timer_deadline(), 370.0);
}

TEST(Trigger, ValidatesParameters) {
  EXPECT_THROW(ScheduleTrigger(0, 120.0), std::invalid_argument);
  EXPECT_THROW(ScheduleTrigger(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ScheduleTrigger(10, -5.0), std::invalid_argument);
}

TEST(Classical, FilterRemovesOverCommittedNodes) {
  auto nodes = make_node_pool(2, 0, 0);
  nodes[0].cores_used = 8;  // full
  ClassicalRequest req;
  req.cores = 4;
  const int pick = schedule_classical(nodes, req);
  EXPECT_EQ(pick, 1);
}

TEST(Classical, GpuRequestNeedsGpuNode) {
  const auto nodes = make_node_pool(3, 1, 0);
  const auto req = request_for_accelerator(mitigation::Accelerator::kGpu);
  const int pick = schedule_classical(nodes, req);
  ASSERT_GE(pick, 0);
  EXPECT_GT(nodes[static_cast<std::size_t>(pick)].gpus, 0);
}

TEST(Classical, NoFitReturnsMinusOne) {
  const auto nodes = make_node_pool(2, 0, 0);
  ClassicalRequest req;
  req.gpus = 1;
  EXPECT_EQ(schedule_classical(nodes, req), -1);
}

TEST(Classical, LeastAllocatedPrefersEmptierNode) {
  auto nodes = make_node_pool(2, 0, 0);
  nodes[0].cores_used = 6;
  nodes[1].cores_used = 0;
  ClassicalRequest req;
  req.cores = 1;
  req.memory_gb = 1.0;
  EXPECT_EQ(schedule_classical(nodes, req, least_allocated_score), 1);
  // Bin packing goes the other way.
  EXPECT_EQ(schedule_classical(nodes, req, most_allocated_score), 0);
}

TEST(Classical, FpgaPoolServesFpgaRequests) {
  const auto nodes = make_node_pool(1, 1, 2);
  const auto req = request_for_accelerator(mitigation::Accelerator::kFpga);
  const int pick = schedule_classical(nodes, req);
  ASSERT_GE(pick, 0);
  EXPECT_GT(nodes[static_cast<std::size_t>(pick)].fpgas, 0);
}

// Scaling property (Fig. 9c rationale): evaluation cost is O(N), so cycles
// with more QPUs but equal jobs should not blow up.
class SchedulerQpuSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerQpuSweep, HandlesClusterSize) {
  const auto input = make_input(30, GetParam(), 37);
  SchedulerConfig config;
  config.nsga2.seed = 41;
  const auto decision = schedule_cycle(input, config);
  for (std::size_t j = 0; j < input.jobs.size(); ++j) {
    EXPECT_GE(decision.assignment[j], 0);
    EXPECT_LT(decision.assignment[j], static_cast<int>(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, SchedulerQpuSweep, ::testing::Values(2u, 4u, 8u, 16u));

}  // namespace
}  // namespace qon::sched
