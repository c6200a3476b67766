#include "sim/global_job_sim.h"

#include <gtest/gtest.h>

#include "obs/bus.h"
#include "obs/counter_sink.h"
#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

TEST(GlobalJob, MatchesUniprocessorEdfOnOneProcessor) {
  const std::vector<UniTask> ts = {{2, 4}, {3, 6}};  // U = 1, EDF-feasible
  GlobalJobSimulator sim(ts, GlobalJobConfig{1, UniAlgorithm::kEDF});
  sim.run_until(1200);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().jobs_completed, sim.metrics().jobs_released);
  EXPECT_EQ(sim.metrics().migrations, 0u);
}

TEST(GlobalJob, CountsOneSchedulingPointPerSelection) {
  // One task (1, 4) on one processor up to t = 8 selects at 0 (the job
  // runs), at 1 (idle until the release at 4), at 4 and at 5: four
  // decisions, each one kSchedInvoke event.
  GlobalJobSimulator sim({{1, 4}}, GlobalJobConfig{1, UniAlgorithm::kEDF});
  obs::EventBus bus;
  obs::CounterSink counters;
  bus.add_sink(&counters);
  sim.attach_observer(&bus);
  sim.run_until(8);
  bus.flush();
  EXPECT_EQ(sim.metrics().scheduling_points, 4u);
  EXPECT_EQ(counters.metrics().scheduling_points, 4u);
}

TEST(GlobalJob, DhallEffectGlobalEdfMissesAtLowUtilization) {
  // The classic construction (Sec. 1 / Dhall & Liu): m light tasks
  // (2, 10) and one heavy task (10, 11).  At t = 0 the light jobs have
  // earlier deadlines and occupy all m processors for 2 time units; the
  // heavy job then needs 10 more and misses its deadline at 11.  Total
  // utilization = 0.2 m + 10/11 — a vanishing fraction of m.
  for (const int m : {2, 4, 8}) {
    std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, 10});
    ts.push_back({10, 11});
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kEDF});
    sim.run_until(200);
    EXPECT_GT(sim.metrics().deadline_misses, 0u) << "m=" << m;
    EXPECT_LE(sim.metrics().first_miss_time, 22) << "m=" << m;
  }
}

TEST(GlobalJob, DhallEffectHitsGlobalRmToo) {
  for (const int m : {2, 4}) {
    std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, 10});
    ts.push_back({10, 11});
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kRM});
    sim.run_until(200);
    EXPECT_GT(sim.metrics().deadline_misses, 0u) << "m=" << m;
  }
}

TEST(GlobalJob, Pd2SchedulesTheDhallSetWithoutMisses) {
  // The same task set, quantum-level PD2: no misses (the paper's
  // argument for Pfair over naive global scheduling).
  for (const int m : {2, 4, 8}) {
    PfairConfig sc;
    sc.processors = m;
    PfairSimulator sim(sc);
    for (int k = 0; k < m; ++k) sim.add_task(make_task(2, 10));
    sim.add_task(make_task(10, 11));
    sim.run_until(2200);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "m=" << m;
  }
}

TEST(GlobalJob, LightLoadsScheduleFine) {
  // Global EDF is not *always* bad: comfortable loads run clean.
  Rng rng(0x6e4a);
  for (int trial = 0; trial < 8; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 2 + trial % 3;
    const std::vector<UniTask> ts =
        generate_uni_tasks(trial_rng, static_cast<std::size_t>(3 * m),
                           0.45 * static_cast<double>(m), 60);
    GlobalJobSimulator sim(ts, GlobalJobConfig{m, UniAlgorithm::kEDF});
    sim.run_until(5000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "trial " << trial;
  }
}

TEST(GlobalJob, AffinityAvoidsSpuriousMigrations) {
  // Two long-running jobs on two processors never migrate.
  const std::vector<UniTask> ts = {{50, 100}, {50, 100}};
  GlobalJobSimulator sim(ts, GlobalJobConfig{2, UniAlgorithm::kEDF});
  sim.run_until(1000);
  EXPECT_EQ(sim.metrics().migrations, 0u);
  EXPECT_EQ(sim.metrics().preemptions, 0u);
}

}  // namespace
}  // namespace pfair
