// Cross-module integration tests encoding the paper's headline claims
// end-to-end, each exercising several subsystems together.
#include <gtest/gtest.h>

#include "overhead/inflation.h"
#include "partition/uni_partition.h"
#include "sim/pfair_sim.h"
#include "sim/verifier.h"
#include "uniproc/uni_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

// Claim (Sec. 1): partitioning is inherently suboptimal; Pfair is not.
// The same task set is rejected by every partitioning heuristic on 2
// processors yet scheduled by PD2 with an independently verified trace.
TEST(PaperClaims, Sec1CounterexampleSeparatesApproaches) {
  const TaskSet set = two_processor_counterexample();
  std::vector<UniTask> uni;
  for (const Task& t : set.tasks()) uni.push_back({t.execution, t.period});
  for (const Heuristic h : {Heuristic::kFirstFit, Heuristic::kBestFit, Heuristic::kWorstFit,
                            Heuristic::kFirstFitDecreasing, Heuristic::kBestFitDecreasing}) {
    EXPECT_FALSE(partition_uni(uni, 2, h, Acceptance::kEdfUtilization).feasible)
        << heuristic_name(h);
  }
  PfairConfig sc;
  sc.processors = 2;
  sc.record_trace = true;
  PfairSimulator sim(sc);
  for (const Task& t : set.tasks()) sim.add_task(t);
  sim.run_until(3 * set.hyperperiod());
  VerifyOptions vo;
  vo.processors = 2;
  const VerifyResult res = verify_schedule(sim.trace(), set, vo);
  EXPECT_TRUE(res.ok) << res.first_violation;
}

// Claim (Sec. 3): the worst-case achievable utilization of any
// partitioning heuristic is (M+1)/2, while PD2 reaches M.
TEST(PaperClaims, Sec3WorstCaseUtilizationGap) {
  for (const int m : {2, 4, 8}) {
    const std::vector<UniTask> adversary = partition_adversary(m, 1000);
    EXPECT_FALSE(partition_uni(adversary, m, Heuristic::kBestFitDecreasing,
                               Acceptance::kEdfUtilization)
                     .feasible);
    // The same weights as a Pfair system: total < m + 1 but > m would be
    // infeasible for anyone; scale to exactly m tasks' worth that PD2
    // handles: here total = (m+1)(1+eps)/2 <= m for m >= 2.
    TaskSet set;
    for (const UniTask& t : adversary) set.add(make_task(t.execution, t.period));
    ASSERT_TRUE(set.feasible_on(m));
    PfairConfig sc;
    sc.processors = m;
    PfairSimulator sim(sc);
    for (const Task& t : set.tasks()) sim.add_task(t);
    sim.run_until(2000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "m=" << m;
  }
}

// Claim (Sec. 4): the Eq.-(3) fixed point converges within ~5
// iterations across the whole Fig.-3 workload space.
TEST(PaperClaims, Sec4FixedPointConvergence) {
  const OverheadParams params;
  Rng rng(0x1234);
  for (const int n : {50, 100, 250}) {
    for (const double mean_u : {1.0 / 30.0, 1.0 / 10.0, 1.0 / 3.0}) {
      Rng trial_rng = rng.fork(static_cast<std::uint64_t>(n * 1000) +
                               static_cast<std::uint64_t>(mean_u * 100));
      OhWorkloadConfig cfg;
      cfg.n_tasks = static_cast<std::size_t>(n);
      cfg.total_utilization = mean_u * n;
      const std::vector<OhTask> tasks = generate_oh_tasks(cfg, trial_rng);
      for (const OhTask& t : tasks) {
        const Pd2Inflation inf = inflate_pd2(t, params, tasks.size(), 16);
        ASSERT_TRUE(inf.feasible);
        EXPECT_LE(inf.iterations, 5);
      }
    }
  }
}

// Claim (Fig. 3 shape): at high per-task utilizations PD2 requires no
// more processors than EDF-FF (bin-packing fragmentation dominates),
// while at low utilizations the two are close.
TEST(PaperClaims, Fig3CrossoverShape) {
  const OverheadParams params;
  Rng rng(0x3333);
  RunningStats low_gap;   // PD2 - EDFFF at mean util 1/30
  RunningStats high_gap;  // at mean util 1/3
  for (int s = 0; s < 40; ++s) {
    for (const bool high : {false, true}) {
      Rng trial_rng = rng.fork(static_cast<std::uint64_t>(s) * 2 + (high ? 1 : 0));
      OhWorkloadConfig cfg;
      cfg.n_tasks = 50;
      cfg.total_utilization = high ? 50.0 / 3.0 : 50.0 / 30.0;
      const std::vector<OhTask> tasks = generate_oh_tasks(cfg, trial_rng);
      const auto pd2 = pd2_min_processors(tasks, params);
      const auto ff = edf_ff_partition(tasks, params);
      ASSERT_TRUE(pd2.has_value());
      ASSERT_TRUE(ff.feasible);
      (high ? high_gap : low_gap).add(static_cast<double>(*pd2 - ff.processors));
    }
  }
  // Low utilization: nearly identical (within half a processor on average).
  EXPECT_LE(std::abs(low_gap.mean()), 0.5);
  // High utilization: PD2 at least as good on average.
  EXPECT_LE(high_gap.mean(), 0.25);
}

// Claim (Sec. 4 context-switch accounting): simulated EDF context
// switches stay below the analytic 2-per-job bound used by Eq. (3),
// and simulated PD2 per-job preemptions below min(E-1, P-E).
TEST(PaperClaims, Sec4AccountingBoundsAreSound) {
  Rng rng(0x4444);
  const std::vector<UniTask> uni = generate_uni_tasks(rng, 10, 0.9, 500);
  UniSimConfig uc;
  uc.algorithm = UniAlgorithm::kEDF;
  UniprocSimulator usim(uni, uc);
  usim.run_until(50000);
  EXPECT_LE(usim.metrics().context_switches, 2 * usim.metrics().jobs_released);

  const TaskSet set = generate_feasible_taskset(rng, 2, 8, 12, /*fill=*/true);
  PfairConfig sc;
  sc.processors = 2;
  PfairSimulator sim(sc);
  std::vector<TaskId> ids;
  for (const Task& t : set.tasks()) ids.push_back(sim.add_task(t));
  sim.run_until(4000);
  ASSERT_EQ(sim.metrics().deadline_misses, 0u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const Task& t = set[static_cast<TaskId>(k)];
    EXPECT_LE(sim.max_job_preemptions(ids[k]),
              std::min(t.execution - 1, t.period - t.execution));
  }
}

// Claim (Sec. 2 / abstract): PD2 optimally schedules periodic, ERfair
// and IS systems — one combined stress: a mixed system of all three
// kinds at full utilization with a mid-run join and a legal leave.
TEST(PaperClaims, MixedModelFullLoadStress) {
  PfairConfig sc;
  sc.processors = 3;
  PfairSimulator sim(sc);
  sim.add_task(make_task(1, 2, TaskKind::kPeriodic));
  sim.add_task(make_task(2, 3, TaskKind::kEarlyRelease));
  sim.add_task(make_task(3, 4, TaskKind::kIntraSporadic));  // on-time arrivals
  const TaskId leaver = sim.add_task(make_task(1, 12, TaskKind::kPeriodic));
  sim.run_until(100);
  const Time freed = sim.request_leave(leaver).value();
  sim.run_until(freed);
  const auto joined = sim.join(make_task(1, 12, TaskKind::kEarlyRelease));
  EXPECT_TRUE(joined.has_value());
  sim.run_until(2000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

}  // namespace
}  // namespace pfair
