// Property suite for the central claims of Sec. 2: PD2 (and PF, PD)
// schedule every feasible periodic / early-release task system with no
// deadline misses and all lags strictly inside (-1, 1), on any number of
// processors — including fully utilised systems (sum of weights == M).
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <type_traits>

#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

// gtest prints a parameter without operator<< as its raw bytes, and that
// text is part of the test name, so the padding is spelled out as zeros:
// left uninitialised it would carry stray memory into the name.
struct Case {
  Case(Algorithm a, int m, bool f) : alg(a), processors(m), fill(f) {}
  Algorithm alg;
  std::uint8_t pad0[3] = {};
  int processors;
  bool fill;  ///< top the set up to total weight exactly m
  std::uint8_t pad1[3] = {};
};
static_assert(std::has_unique_object_representations_v<Case> && sizeof(Case) == 12);

class OptimalityTest : public ::testing::TestWithParam<Case> {};

TEST_P(OptimalityTest, RandomFeasibleSetsNeverMiss) {
  const Case& c = GetParam();
  Rng rng(0x5eedull * 1315423911u + static_cast<std::uint64_t>(c.processors) * 7919u +
          static_cast<std::uint64_t>(c.alg) * 104729u + (c.fill ? 15485863u : 0u));
  const int trials = 12;
  for (int trial = 0; trial < trials; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet set = generate_feasible_taskset(
        trial_rng, c.processors, /*max_tasks=*/static_cast<std::size_t>(4 * c.processors + 4),
        /*max_period=*/16, c.fill);
    PfairConfig sc;
    sc.processors = c.processors;
    sc.algorithm = c.alg;
    sc.check_lags = !c.fill ? true : true;  // lags checked in all cases
    PfairSimulator sim(sc);
    for (const Task& t : set.tasks()) sim.add_task(t);
    const Time horizon = std::min<std::int64_t>(4 * set.hyperperiod(), 4000);
    sim.run_until(horizon);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u)
        << algorithm_name(c.alg) << " m=" << c.processors << " trial=" << trial
        << " weight=" << set.total_weight().to_string();
    EXPECT_EQ(sim.metrics().lag_violations, 0u)
        << algorithm_name(c.alg) << " m=" << c.processors << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PD2, OptimalityTest,
    ::testing::Values(Case{Algorithm::kPD2, 1, false}, Case{Algorithm::kPD2, 2, false},
                      Case{Algorithm::kPD2, 3, false}, Case{Algorithm::kPD2, 4, false},
                      Case{Algorithm::kPD2, 8, false}, Case{Algorithm::kPD2, 1, true},
                      Case{Algorithm::kPD2, 2, true}, Case{Algorithm::kPD2, 3, true},
                      Case{Algorithm::kPD2, 4, true}, Case{Algorithm::kPD2, 8, true}),
    [](const auto& info) {
      return std::string("m") + std::to_string(info.param.processors) +
             (info.param.fill ? "_full" : "_slack");
    });

INSTANTIATE_TEST_SUITE_P(
    PF, OptimalityTest,
    ::testing::Values(Case{Algorithm::kPF, 2, true}, Case{Algorithm::kPF, 3, true},
                      Case{Algorithm::kPF, 4, true}, Case{Algorithm::kPF, 2, false},
                      Case{Algorithm::kPF, 4, false}),
    [](const auto& info) {
      return std::string("m") + std::to_string(info.param.processors) +
             (info.param.fill ? "_full" : "_slack");
    });

INSTANTIATE_TEST_SUITE_P(
    PD, OptimalityTest,
    ::testing::Values(Case{Algorithm::kPD, 2, true}, Case{Algorithm::kPD, 3, true},
                      Case{Algorithm::kPD, 4, true}, Case{Algorithm::kPD, 2, false},
                      Case{Algorithm::kPD, 4, false}),
    [](const auto& info) {
      return std::string("m") + std::to_string(info.param.processors) +
             (info.param.fill ? "_full" : "_slack");
    });

// Early release keeps all deadlines too (ERfair optimality, [2]); lags
// may go below -1 so only misses are asserted.
class ErfairOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(ErfairOptimalityTest, FullyLoadedErfairSetsNeverMiss) {
  const int m = GetParam();
  Rng rng(0xabcdu + static_cast<std::uint64_t>(m));
  for (int trial = 0; trial < 10; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet set =
        generate_feasible_taskset(trial_rng, m, static_cast<std::size_t>(4 * m + 4), 16,
                                  /*fill=*/true, TaskKind::kEarlyRelease);
    PfairConfig sc;
    sc.processors = m;
    sc.algorithm = Algorithm::kPD2;
    PfairSimulator sim(sc);
    for (const Task& t : set.tasks()) sim.add_task(t);
    sim.run_until(std::min<std::int64_t>(4 * set.hyperperiod(), 4000));
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "m=" << m << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(ER, ErfairOptimalityTest, ::testing::Values(1, 2, 3, 4, 8),
                         ::testing::PrintToStringParamName());

// Asynchronous periodic systems (random phases) are also scheduled
// without misses — the Anderson-Srinivasan [4] claim the paper leans on
// for the generality of PD2.
TEST(Optimality, AsynchronousPhasesNeverMiss) {
  Rng rng(0xa570);
  for (int trial = 0; trial < 10; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 1 + trial % 4;
    TaskSet set = generate_feasible_taskset(trial_rng, m, 16, 14, /*fill=*/true);
    PfairConfig sc;
    sc.processors = m;
    PfairSimulator sim(sc);
    for (Task t : set.tasks()) {
      t.phase = trial_rng.uniform_int(0, 20);
      t.kind = trial % 2 == 0 ? TaskKind::kPeriodic : TaskKind::kEarlyRelease;
      sim.add_task(t);
    }
    sim.run_until(2000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "m=" << m << " trial=" << trial;
  }
}

// Regression: hundreds of tasks on 16 processors at exact full load.
// (Once failed because exact-rational weight sums overflowed 64 bits for
// unrestricted period draws, corrupting the capacity top-up task; the
// generator now bounds all denominators.)
TEST(Optimality, LargeFullyLoadedSixteenProcessorSystem) {
  Rng rng(7952);
  const TaskSet set = generate_feasible_taskset(rng, 16, 300, 64, /*fill=*/true);
  ASSERT_EQ(set.total_weight(), Rational(16));
  PfairConfig sc;
  sc.processors = 16;
  PfairSimulator sim(sc);
  for (const Task& t : set.tasks()) sim.add_task(t);
  sim.run_until(3000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  EXPECT_EQ(sim.metrics().idle_quanta, 0u);
}

// A fully utilised system keeps every processor busy in every slot under
// any Pfair-optimal rule.
TEST(Optimality, FullUtilizationMeansZeroIdle) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = 1 + trial % 4;
    const TaskSet set = generate_feasible_taskset(trial_rng, m, 20, 12, /*fill=*/true);
    ASSERT_EQ(set.total_weight(), Rational(m));
    PfairConfig sc;
    sc.processors = m;
    PfairSimulator sim(sc);
    for (const Task& t : set.tasks()) sim.add_task(t);
    sim.run_until(1000);
    EXPECT_EQ(sim.metrics().idle_quanta, 0u) << "m=" << m;
    EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  }
}

}  // namespace
}  // namespace pfair
