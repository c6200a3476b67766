#include "uniproc/uni_sim.h"

#include <gtest/gtest.h>

#include "obs/prof.h"
#include "uniproc/analysis.h"
#include "workload/generator.h"

namespace pfair {
namespace {

UniSimConfig cfg(UniAlgorithm a) {
  UniSimConfig c;
  c.algorithm = a;
  return c;
}

TEST(UniSim, SingleTaskCompletesEveryJobOnTime) {
  UniprocSimulator sim({{3, 10}}, cfg(UniAlgorithm::kEDF));
  sim.run_until(100);
  EXPECT_EQ(sim.metrics().jobs_released, 10u);
  EXPECT_EQ(sim.metrics().jobs_completed, 10u);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().preemptions, 0u);
}

TEST(UniSim, EdfFullUtilizationNeverMisses) {
  UniprocSimulator sim({{2, 4}, {3, 6}}, cfg(UniAlgorithm::kEDF));  // U = 1
  sim.run_until(1200);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().jobs_completed, sim.metrics().jobs_released);
}

TEST(UniSim, EdfOverloadMisses) {
  UniprocSimulator sim({{3, 4}, {3, 6}}, cfg(UniAlgorithm::kEDF));  // U = 1.25
  sim.run_until(200);
  EXPECT_GT(sim.metrics().deadline_misses, 0u);
}

TEST(UniSim, RmMissesAboveExactBoundButEdfDoesNot) {
  // U = 59/60 with non-harmonic periods: EDF fine, RM misses (the
  // lowest-priority task's response time is 6 > its period 5).
  const std::vector<UniTask> ts = {{1, 3}, {1, 4}, {2, 5}};
  ASSERT_FALSE(rm_schedulable_exact(ts));
  ASSERT_TRUE(edf_schedulable(ts));
  UniprocSimulator rm(ts, cfg(UniAlgorithm::kRM));
  rm.run_until(3000);
  EXPECT_GT(rm.metrics().deadline_misses, 0u);
  UniprocSimulator edf(ts, cfg(UniAlgorithm::kEDF));
  edf.run_until(3000);
  EXPECT_EQ(edf.metrics().deadline_misses, 0u);
}

TEST(UniSim, RmExactTestPredictsSimulation) {
  // For synchronous periodic sets the response-time test is exact:
  // simulate one hyperperiod and compare.
  Rng rng(0xbeef);
  for (int trial = 0; trial < 30; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    std::vector<UniTask> ts;
    const int n = static_cast<int>(trial_rng.uniform_int(2, 5));
    for (int k = 0; k < n; ++k) {
      const std::int64_t p = trial_rng.uniform_int(3, 12);
      const std::int64_t e = trial_rng.uniform_int(1, std::max<std::int64_t>(1, p / 2));
      ts.push_back({e, p});
    }
    std::int64_t hp = 1;
    for (const UniTask& t : ts) hp = saturating_lcm(hp, t.period);
    if (hp > 100000) continue;
    UniprocSimulator sim(ts, cfg(UniAlgorithm::kRM));
    sim.run_until(hp);
    const bool sim_ok = sim.metrics().deadline_misses == 0;
    EXPECT_EQ(sim_ok, rm_schedulable_exact(ts)) << "trial " << trial;
  }
}

TEST(UniSim, EdfPreemptionsBoundedByJobs) {
  // The Sec.-4 accounting: under EDF the number of preemptions is at
  // most the number of jobs, so context switches <= 2 * jobs.
  Rng rng(0x100);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const std::vector<UniTask> ts = generate_uni_tasks(trial_rng, 8, 0.95, 1000);
    UniprocSimulator sim(ts, cfg(UniAlgorithm::kEDF));
    sim.run_until(20000);
    EXPECT_LE(sim.metrics().preemptions, sim.metrics().jobs_released) << "trial " << trial;
    EXPECT_LE(sim.metrics().context_switches, 2 * sim.metrics().jobs_released);
  }
}

TEST(UniSim, SchedulerInvocationsCounted) {
  UniprocSimulator sim({{1, 5}, {1, 7}}, cfg(UniAlgorithm::kEDF));
  sim.run_until(100);
  EXPECT_GT(sim.metrics().scheduling_points, 0u);
}

TEST(UniSim, OneInvocationPerDecisionInstant) {
  // One task (1, 4) to t = 40: ten releases and ten completions, each a
  // decision instant of its own, so twenty invocations — a completion is
  // not decided twice — each timed once as a kRelease and a kSelect phase.
  obs::prof::set_enabled(true);
  obs::prof::reset();
  UniprocSimulator sim({{1, 4}}, cfg(UniAlgorithm::kEDF));
  sim.run_until(40);
  const obs::prof::PhaseTotals release = obs::prof::collect_totals(obs::prof::Phase::kRelease);
  const obs::prof::PhaseTotals select = obs::prof::collect_totals(obs::prof::Phase::kSelect);
  obs::prof::set_enabled(false);
  obs::prof::reset();
  EXPECT_EQ(sim.metrics().jobs_released, 10u);
  EXPECT_EQ(sim.metrics().jobs_completed, 10u);
  EXPECT_EQ(sim.metrics().scheduling_points, 20u);
  EXPECT_EQ(release.count, 20u);
  EXPECT_EQ(select.count, 20u);
}

TEST(UniSim, OverheadTimingAccumulates) {
  // Release processing and each invocation are timed as the obs::prof
  // kRelease and kSelect phases: one scope of each per invocation.
  obs::prof::set_enabled(true);
  obs::prof::reset();
  UniprocSimulator sim({{1, 3}, {2, 7}, {1, 11}}, cfg(UniAlgorithm::kEDF));
  sim.run_until(10000);
  const obs::prof::PhaseTotals release = obs::prof::collect_totals(obs::prof::Phase::kRelease);
  const obs::prof::PhaseTotals select = obs::prof::collect_totals(obs::prof::Phase::kSelect);
  obs::prof::set_enabled(false);
  obs::prof::reset();
  EXPECT_EQ(release.count, sim.metrics().scheduling_points);
  EXPECT_EQ(select.count, sim.metrics().scheduling_points);
  EXPECT_GT(release.total_ns + select.total_ns, 0u);
}

TEST(UniSim, DeadlineTiesDoNotPreempt) {
  // Two tasks with identical parameters: whoever starts first runs to
  // completion each period (no thrashing on equal deadlines).
  UniprocSimulator sim({{2, 10}, {2, 10}}, cfg(UniAlgorithm::kEDF));
  sim.run_until(100);
  EXPECT_EQ(sim.metrics().preemptions, 0u);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

}  // namespace
}  // namespace pfair
