#include "workload/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace pfair {
namespace {

TEST(OhGenerator, HitsRequestedTotalUtilization) {
  Rng rng(1);
  OhWorkloadConfig cfg;
  cfg.n_tasks = 100;
  cfg.total_utilization = 12.5;
  const std::vector<OhTask> tasks = generate_oh_tasks(cfg, rng);
  ASSERT_EQ(tasks.size(), 100u);
  double total = 0.0;
  for (const OhTask& t : tasks) total += t.utilization();
  EXPECT_NEAR(total, 12.5, 0.01);
}

TEST(OhGenerator, RespectsStructuralConstraints) {
  Rng rng(2);
  OhWorkloadConfig cfg;
  cfg.n_tasks = 200;
  cfg.total_utilization = 30.0;
  const std::vector<OhTask> tasks = generate_oh_tasks(cfg, rng);
  for (const OhTask& t : tasks) {
    EXPECT_GT(t.execution_us, 0.0);
    EXPECT_LT(t.utilization(), 1.0);
    EXPECT_GE(t.period_us, cfg.period_min_us - cfg.quantum_us);
    EXPECT_LE(t.period_us, cfg.period_max_us + cfg.quantum_us);
    // Periods are quantum multiples (paper assumption for Eq. (3)).
    EXPECT_NEAR(std::fmod(t.period_us, cfg.quantum_us), 0.0, 1e-9);
    EXPECT_GE(t.cache_delay_us, 0.0);
    EXPECT_LE(t.cache_delay_us, cfg.cache_delay_max_us);
  }
}

TEST(OhGenerator, CacheDelayMeanNearPaperValue) {
  Rng rng(3);
  OhWorkloadConfig cfg;
  cfg.n_tasks = 2000;
  cfg.total_utilization = 100.0;
  const std::vector<OhTask> tasks = generate_oh_tasks(cfg, rng);
  double mean = 0.0;
  for (const OhTask& t : tasks) mean += t.cache_delay_us;
  mean /= static_cast<double>(tasks.size());
  // The paper draws D(T) in [0, 100] us with mean 33.3 us; we realise
  // that as a right-triangular density (mean = max/3).
  EXPECT_NEAR(mean, 33.3, 2.0);
}

TEST(PfairGenerator, PeriodsDivideTheBaseHyperperiod) {
  // The overflow-safety invariant: every generated period divides
  // 720720, so exact weight sums over any number of tasks stay within
  // 64-bit rationals (see generator.cpp).
  Rng rng(0xd100);
  for (int k = 0; k < 500; ++k) {
    const Task t = random_pfair_task(rng, 100000);
    EXPECT_EQ(720720 % t.period, 0) << "p=" << t.period;
  }
}

TEST(PfairGenerator, HugeFeasibleSetsSumExactlyWithoutOverflow) {
  Rng rng(0xbead5);
  TaskSet set;
  Rational total(0);
  for (int k = 0; k < 5000; ++k) {
    const Task t = random_pfair_task(rng, 5000);
    total += t.weight();  // must never trip the overflow assert
    set.add(t);
  }
  EXPECT_EQ(set.total_weight(), total);
  EXPECT_LE(total.den(), 720720);
}

TEST(PfairGenerator, SmallMaxPeriodBehavesLikeUniformDraw) {
  // Every integer in [1, 16] divides 720720, so max_period <= 16 sees
  // the full period range.
  Rng rng(0x16);
  std::set<std::int64_t> seen;
  for (int k = 0; k < 2000; ++k) seen.insert(random_pfair_task(rng, 16).period);
  EXPECT_EQ(seen.size(), 16u);
}

TEST(PfairGenerator, FeasibleSetsRespectEquationTwo) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 1 + trial % 5;
    const TaskSet set = generate_feasible_taskset(trial_rng, m, 30, 16);
    EXPECT_TRUE(set.feasible_on(m));
    EXPECT_FALSE(set.empty());
  }
}

TEST(PfairGenerator, FillProducesExactCapacity) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 1 + trial % 4;
    const TaskSet set = generate_feasible_taskset(trial_rng, m, 30, 16, /*fill=*/true);
    EXPECT_EQ(set.total_weight(), Rational(m)) << "m=" << m;
  }
}

TEST(UniGenerator, CapsTotalUtilization) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const std::vector<UniTask> ts = generate_uni_tasks(trial_rng, 25, 0.9, 10000);
    // Integer rounding moves each task by < 1/p; allow slack.
    EXPECT_LE(total_utilization(ts), 1.0);
    EXPECT_EQ(ts.size(), 25u);
    for (const UniTask& t : ts) EXPECT_TRUE(t.valid());
  }
}

TEST(Adversary, TotalApproachesWorstCase) {
  const std::vector<UniTask> u = partition_adversary(4, 1000);
  Rational total(0);
  for (const UniTask& t : u) total += Rational(t.execution, t.period);
  // (m+1) * (1+eps)/2 -> 2.5 * (1 + 1/1000)
  EXPECT_NEAR(total.to_double(), 2.5025, 1e-9);
  EXPECT_EQ(u.size(), 5u);
}

TEST(Fig5Builder, MatchesThePaper) {
  const Fig5System sys = fig5_system();
  ASSERT_EQ(sys.normal_tasks.size(), 4u);
  EXPECT_EQ(sys.normal_tasks[0].weight(), Rational(1, 2));
  EXPECT_EQ(sys.normal_tasks[1].weight(), Rational(1, 3));
  EXPECT_EQ(sys.normal_tasks[2].weight(), Rational(1, 3));
  EXPECT_EQ(sys.normal_tasks[3].weight(), Rational(2, 9));
  EXPECT_EQ(sys.supertask.competing_weight(), Rational(2, 9));
  // Whole system fits on two processors.
  Rational total = sys.normal_tasks.total_weight() + sys.supertask.competing_weight();
  EXPECT_LE(total, Rational(2));
}

TEST(CounterexampleBuilder, ThreeTwoThirds) {
  const TaskSet set = two_processor_counterexample();
  EXPECT_EQ(set.total_weight(), Rational(2));
  EXPECT_EQ(set.size(), 3u);
}

}  // namespace
}  // namespace pfair
