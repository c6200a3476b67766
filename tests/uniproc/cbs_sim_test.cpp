#include "uniproc/cbs_sim.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace pfair {
namespace {

std::vector<AperiodicJob> flood(Time until, std::int64_t exec, Time gap) {
  std::vector<AperiodicJob> jobs;
  for (Time t = 0; t < until; t += gap) jobs.push_back({t, exec});
  return jobs;
}

TEST(Cbs, WellBehavedServerServesEverything) {
  // Demand 1 unit every 10 (= 0.1) into a server of bandwidth 0.2.
  CbsServerSpec server{2, 10, flood(1000, 1, 10)};
  CbsSimulator sim({{3, 10}}, CbsConfig{{server}});
  sim.run_until(2000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().served_jobs_completed, 100u);
  EXPECT_EQ(sim.server_work(0), 100);
}

TEST(Cbs, OverrunningServerIsThrottledToItsBandwidth) {
  // Demand 1.0 (continuous) into a bandwidth-0.25 server.  CBS is work
  // conserving, so the server may soak *idle* capacity — under a 0.75
  // hard load there is none spare beyond its reservation, and long-run
  // service pins to exactly its 25% bandwidth.
  CbsServerSpec server{1, 4, flood(4000, 4, 4)};  // 4 units every 4 slots
  CbsSimulator sim({{3, 4}}, CbsConfig{{server}});  // hard load 0.75
  sim.run_until(4000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_NEAR(static_cast<double>(sim.server_work(0)) / 4000.0, 0.25, 0.01);
  EXPECT_GT(sim.metrics().deadline_postponements, 0u);
}

TEST(Cbs, WorkConservingServerSoaksIdleCapacityOnly) {
  // Same flood, hard load only 0.5: the server receives its 0.25
  // reservation plus the 0.25 that would otherwise idle — but the hard
  // task stays untouched (the CBS guarantee is about interference, not
  // a hard throughput cap).
  CbsServerSpec server{1, 4, flood(4000, 4, 4)};
  CbsSimulator sim({{1, 2}}, CbsConfig{{server}});
  sim.run_until(4000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_NEAR(static_cast<double>(sim.server_work(0)) / 4000.0, 0.5, 0.01);
}

TEST(Cbs, HardTasksIsolatedFromServerOverrunRandomised) {
  // The isolation theorem: U_hard + sum Q/T <= 1 implies zero hard
  // misses no matter how much the aperiodic streams demand.
  Rng rng(0xcb5);
  for (int trial = 0; trial < 10; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    std::vector<UniTask> hard;
    double u_hard = 0.0;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t p = trial_rng.uniform_int(10, 40);
      const std::int64_t e = trial_rng.uniform_int(1, p / 5);
      hard.push_back({e, p});
      u_hard += hard.back().utilization();
    }
    // Two servers with combined bandwidth <= 1 - u_hard.
    const double spare = 1.0 - u_hard;
    const std::int64_t t1 = 20;
    const std::int64_t q1 = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(spare * 0.4 * static_cast<double>(t1)));
    const std::int64_t t2 = 32;
    const std::int64_t q2 = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(spare * 0.4 * static_cast<double>(t2)));
    if (u_hard + static_cast<double>(q1) / t1 + static_cast<double>(q2) / t2 > 1.0)
      continue;
    // Both servers flooded far beyond their bandwidth.
    CbsServerSpec s1{q1, t1, flood(3000, trial_rng.uniform_int(3, 9), 5)};
    CbsServerSpec s2{q2, t2, flood(3000, trial_rng.uniform_int(3, 9), 7)};
    CbsSimulator sim(hard, CbsConfig{{s1, s2}});
    sim.run_until(6000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "trial " << trial;
  }
}

TEST(Cbs, WithoutServerOverrunWouldSinkHardTasks) {
  // Control experiment: admit the same overrunning stream as a plain
  // hard "task" of its nominal (underestimated) cost and watch EDF
  // miss — the contrast motivating CBS (and, on multiprocessors, the
  // built-in isolation of Pfair).
  CbsServerSpec honest_server{1, 4, flood(4000, 4, 4)};
  CbsSimulator with_cbs({{1, 2}}, CbsConfig{{honest_server}});
  with_cbs.run_until(4000);
  EXPECT_EQ(with_cbs.metrics().deadline_misses, 0u);

  // Same demand declared as a periodic task (4 every 4 = utilization 1)
  // next to the 0.5 hard task: overload, the hard task misses.
  CbsSimulator no_cbs({{1, 2}, {4, 4}}, CbsConfig{});
  no_cbs.run_until(4000);
  EXPECT_GT(no_cbs.metrics().deadline_misses, 0u);
}

TEST(Cbs, IdleServerReusesBudgetWhenConsistent) {
  // A single short job, then a long gap, then another: the second
  // arrival resets (c, d) because the old pair is stale.
  CbsServerSpec server{2, 10, {{0, 1}, {100, 1}}};
  CbsSimulator sim({}, CbsConfig{{server}});
  sim.run_until(200);
  EXPECT_EQ(sim.metrics().served_jobs_completed, 2u);
  EXPECT_EQ(sim.server_work(0), 2);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Cbs, SchedulerInvocationsGrowWithServers) {
  // The paper's remark that CBS "increases scheduling overhead": the
  // event count with servers strictly exceeds the plain-EDF event count
  // of the hard tasks alone.
  CbsSimulator plain({{1, 4}, {1, 8}}, CbsConfig{});
  plain.run_until(2000);
  CbsSimulator with_server({{1, 4}, {1, 8}},
                           CbsConfig{{CbsServerSpec{1, 8, flood(2000, 1, 8)}}});
  with_server.run_until(2000);
  EXPECT_GT(with_server.metrics().scheduling_points,
            plain.metrics().scheduling_points);
}

}  // namespace
}  // namespace pfair
