#include "sim/pfair_sim.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rational.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pfair {
namespace {

PfairConfig cfg(int m, Algorithm alg = Algorithm::kPD2) {
  PfairConfig c;
  c.processors = m;
  c.algorithm = alg;
  return c;
}

TEST(PfairSim, SingleUnitWeightTaskRunsEverySlot) {
  PfairSimulator sim(cfg(1));
  const TaskId id = sim.add_task(make_task(1, 1));
  sim.run_until(100);
  EXPECT_EQ(sim.allocated(id), 100);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().idle_quanta, 0u);
}

TEST(PfairSim, HalfWeightTaskGetsExactlyHalf) {
  PfairSimulator sim(cfg(1));
  const TaskId id = sim.add_task(make_task(1, 2));
  sim.run_until(100);
  EXPECT_EQ(sim.allocated(id), 50);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(PfairSim, AllocationTracksFluidRateOverAnyPrefix) {
  PfairConfig c = cfg(1);
  c.check_lags = true;
  PfairSimulator sim(c);
  sim.add_task(make_task(3, 7));
  sim.add_task(make_task(2, 5));
  sim.run_until(7 * 5 * 20);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().lag_violations, 0u);
}

TEST(PfairSim, ThreeTwoThirdTasksOnTwoProcessors) {
  // The paper's Sec.-1 example: impossible under partitioning, trivial
  // under Pfair.
  PfairConfig c = cfg(2);
  c.check_lags = true;
  PfairSimulator sim(c);
  TaskSet set = two_processor_counterexample();
  for (const Task& t : set.tasks()) sim.add_task(t);
  sim.run_until(300);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().lag_violations, 0u);
  // Full utilization: no idle quanta at all.
  EXPECT_EQ(sim.metrics().idle_quanta, 0u);
}

TEST(PfairSim, NoTaskRunsTwiceInOneSlot) {
  PfairConfig c = cfg(4);
  c.record_trace = true;
  PfairSimulator sim(c);
  sim.add_task(make_task(9, 10));
  sim.add_task(make_task(7, 10));
  sim.add_task(make_task(5, 10));
  sim.run_until(50);
  const ScheduleTrace& tr = sim.trace();
  for (std::size_t t = 0; t < tr.size(); ++t) {
    int per_task[3] = {0, 0, 0};
    for (const TaskId id : tr[t].proc_to_task)
      if (id != kNoTask) ++per_task[id];
    for (const int n : per_task) EXPECT_LE(n, 1) << "slot " << t;
  }
}

TEST(PfairSim, TraceAllocationMatchesCounter) {
  PfairConfig c = cfg(2);
  c.record_trace = true;
  PfairSimulator sim(c);
  const TaskId a = sim.add_task(make_task(3, 5));
  const TaskId b = sim.add_task(make_task(4, 7));
  sim.run_until(70);
  EXPECT_EQ(sim.trace().allocation(a, 70), sim.allocated(a));
  EXPECT_EQ(sim.trace().allocation(b, 70), sim.allocated(b));
  EXPECT_EQ(sim.allocated(a), 3 * 70 / 5);
  EXPECT_EQ(sim.allocated(b), 4 * 70 / 7);
}

TEST(PfairSim, PeriodicPfairIsNotWorkConserving) {
  // One light task on one processor: after a subtask executes at its
  // release, the processor idles until the next window even though the
  // task has future work (paper Sec. 2, "Rate-based Pfair").
  PfairSimulator sim(cfg(1));
  sim.add_task(make_task(1, 4));
  sim.run_until(40);
  EXPECT_EQ(sim.metrics().busy_quanta, 10u);
  EXPECT_EQ(sim.metrics().idle_quanta, 30u);
}

TEST(PfairSim, ErfairIsWorkConservingWithinJobs) {
  // Same task, early-release: all 3 quanta of each job run back-to-back
  // at the start of each period.
  PfairConfig c = cfg(1);
  c.record_trace = true;
  PfairSimulator sim(c);
  const TaskId id = sim.add_task(make_task(3, 6, TaskKind::kEarlyRelease));
  sim.run_until(12);
  for (const std::size_t t : {0u, 1u, 2u, 6u, 7u, 8u}) EXPECT_TRUE(sim.trace().scheduled(t, id));
  for (const std::size_t t : {3u, 4u, 5u, 9u, 10u, 11u})
    EXPECT_FALSE(sim.trace().scheduled(t, id));
}

TEST(PfairSim, SchedulerInvokedOncePerSlot) {
  PfairSimulator sim(cfg(3));
  sim.add_task(make_task(1, 2));
  sim.run_until(42);
  EXPECT_EQ(sim.metrics().scheduling_points, 42u);
  EXPECT_EQ(sim.metrics().slots, 42u);
}

TEST(PfairSim, BusyPlusIdleEqualsCapacity) {
  PfairSimulator sim(cfg(3));
  sim.add_task(make_task(2, 3));
  sim.add_task(make_task(1, 4));
  sim.run_until(60);
  EXPECT_EQ(sim.metrics().busy_quanta + sim.metrics().idle_quanta, 3u * 60u);
}

TEST(PfairSim, RunUntilIsResumable) {
  PfairSimulator sim(cfg(1));
  const TaskId id = sim.add_task(make_task(1, 2));
  sim.run_until(10);
  const std::int64_t at10 = sim.allocated(id);
  sim.run_until(20);
  EXPECT_EQ(at10, 5);
  EXPECT_EQ(sim.allocated(id), 10);
  EXPECT_EQ(sim.now(), 20);
}

TEST(PfairSim, OverloadedSystemMissesAndReportsFirstMissTime) {
  // Two unit-weight tasks on one processor: the second misses
  // immediately.
  PfairSimulator sim(cfg(1));
  sim.add_task(make_task(1, 1));
  sim.add_task(make_task(1, 1));
  sim.run_until(10);
  EXPECT_GT(sim.metrics().deadline_misses, 0u);
  EXPECT_GE(sim.metrics().first_miss_time, 0);
}

TEST(PfairSim, DropPolicySkipsLateSubtasks) {
  PfairConfig c = cfg(1);
  c.miss_policy = MissPolicy::kDrop;
  PfairSimulator sim(c);
  const TaskId a = sim.add_task(make_task(1, 1));
  const TaskId b = sim.add_task(make_task(1, 1));
  sim.run_until(10);
  // Task a (lower id wins ties) gets every slot; b's subtasks all drop.
  EXPECT_EQ(sim.allocated(a) + sim.allocated(b), 10);
  EXPECT_GT(sim.metrics().deadline_misses, 0u);
}

TEST(PfairSim, WeightOneTaskAlwaysScheduledEvenAmongHeavyCompetitors) {
  PfairConfig c = cfg(2);
  c.check_lags = true;
  PfairSimulator sim(c);
  const TaskId full = sim.add_task(make_task(1, 1));
  sim.add_task(make_task(2, 3));
  sim.add_task(make_task(1, 3));
  sim.run_until(99);
  EXPECT_EQ(sim.allocated(full), 99);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().lag_violations, 0u);
}

// A set and its copy with every (e, p) scaled by 10^15 have the same
// windows, b-bits and group deadlines, so PD2 must schedule them
// identically.  At that scale a heavy task's group-deadline products
// pass int64 after ~1000 subtasks, which used to wrap the group deadline
// negative and change PD2's ties.  Full-load, heavy-biased sets on up to
// three processors, 4000 slots each.
TEST(PfairSim, SetScaledBy1e15SchedulesLikeItsTwin) {
  constexpr std::int64_t kScale = 1'000'000'000'000'000;
  std::size_t differing = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0x5ca1e + seed);
    const int m = 1 + static_cast<int>(seed % 3);
    std::vector<std::pair<std::int64_t, std::int64_t>> set;
    Rational total(0);
    for (int attempt = 0; attempt < 60; ++attempt) {
      const std::int64_t p = rng.uniform_int(2, 9);
      const std::int64_t e = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, p)
                                                         : rng.uniform_int((p + 1) / 2, p);
      if (total + Rational(e, p) > Rational(m)) continue;
      total += Rational(e, p);
      set.emplace_back(e, p);
    }
    ScheduleTrace traces[2];
    for (const int scaled : {0, 1}) {
      PfairConfig cfg;
      cfg.processors = m;
      cfg.record_trace = true;
      PfairSimulator sim(cfg);
      const std::int64_t k = scaled == 1 ? kScale : 1;
      for (const auto& [e, p] : set) sim.add_task(make_task(k * e, k * p));
      sim.run_until(4000);
      traces[scaled] = sim.trace();
    }
    ASSERT_EQ(traces[0].size(), traces[1].size());
    for (std::size_t t = 0; t < traces[0].size(); ++t) {
      if (traces[0][t].proc_to_task != traces[1][t].proc_to_task) {
        ADD_FAILURE() << "seed " << seed << " (m=" << m << "): first difference at slot " << t;
        ++differing;
        break;
      }
    }
  }
  EXPECT_EQ(differing, 0u);
}

}  // namespace
}  // namespace pfair
