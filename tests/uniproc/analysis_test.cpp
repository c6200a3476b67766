#include "uniproc/analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace pfair {
namespace {

TEST(EdfTest, BoundaryAtExactlyOne) {
  EXPECT_TRUE(edf_schedulable({{1, 3}, {1, 3}, {1, 3}}));   // U = 1 exactly
  EXPECT_FALSE(edf_schedulable({{1, 3}, {1, 3}, {2, 5}}));  // U = 16/15
  EXPECT_TRUE(edf_schedulable({}));
}

TEST(RmBound, KnownValues) {
  EXPECT_DOUBLE_EQ(rm_utilization_bound(1), 1.0);
  EXPECT_NEAR(rm_utilization_bound(2), 2.0 * (std::sqrt(2.0) - 1.0), 1e-12);  // ~0.828
  EXPECT_NEAR(rm_utilization_bound(3), 0.7797, 1e-4);
  // Approaches ln 2 ~ 0.693 from above.
  EXPECT_NEAR(rm_utilization_bound(10000), std::log(2.0), 1e-4);
  for (std::size_t n = 1; n < 50; ++n)
    EXPECT_GT(rm_utilization_bound(n), rm_utilization_bound(n + 1));
}

TEST(RmLl, SufficientButNotNecessary) {
  // Harmonic periods: schedulable at U = 1 even though LL rejects.
  const std::vector<UniTask> harmonic = {{1, 2}, {1, 4}, {1, 4}};  // U = 1
  EXPECT_FALSE(rm_schedulable_ll(harmonic));
  EXPECT_TRUE(rm_schedulable_exact(harmonic));
}

TEST(RmResponseTime, SingleTaskRunsUnimpeded) {
  EXPECT_EQ(rm_response_time({{3, 10}}, 0), 3);
}

TEST(RmResponseTime, ClassicTwoTaskExample) {
  // T1 = (1, 4) higher priority, T2 = (4, 10):
  // R2 = 4 + ceil(R2/4)*1 -> 4+1=5, 4+ceil(5/4)=6, 4+ceil(6/4)=6. R2=6.
  const std::vector<UniTask> ts = {{1, 4}, {4, 10}};
  EXPECT_EQ(rm_response_time(ts, 0), 1);
  EXPECT_EQ(rm_response_time(ts, 1), 6);
  EXPECT_TRUE(rm_schedulable_exact(ts));
}

TEST(RmResponseTime, DivergesWhenUnschedulable) {
  // Two half-utilization tasks plus one more: total > 1.
  const std::vector<UniTask> ts = {{2, 4}, {2, 4}, {1, 8}};
  EXPECT_EQ(rm_response_time(ts, 2), -1);
  EXPECT_FALSE(rm_schedulable_exact(ts));
}

TEST(RmExact, LiuLaylandCriticalInstanceIsTight) {
  // n tasks with periods 2^k spaced and utilization exactly at the LL
  // bound region: the canonical tight example T_i = (p_{i+1} - p_i,
  // p_i) with p = {2, 3} -> tasks (1, 2), (1, 3): U = 0.833 > LL(2) but
  // exactly schedulable (R2 = 1 + ... ) check via analysis.
  const std::vector<UniTask> ts = {{1, 2}, {1, 3}};
  EXPECT_FALSE(rm_schedulable_ll(ts));
  EXPECT_TRUE(rm_schedulable_exact(ts));
}

TEST(RmExact, ImpliesLl) {
  // Anything accepted by the LL bound must pass the exact test.
  const std::vector<UniTask> ts = {{1, 4}, {1, 5}, {1, 10}};  // U = 0.55 < 0.7797
  ASSERT_TRUE(rm_schedulable_ll(ts));
  EXPECT_TRUE(rm_schedulable_exact(ts));
}

TEST(RmExact, IncrementalTestMatchesTheFullTest) {
  // rm_schedulable_with re-analyses only the joining task and the
  // longer-period tasks it preempts; on every RM-schedulable base set it
  // must agree with the full test over the set with the task appended.
  Rng rng(0x5eed);
  int accepted = 0;
  int refused = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<UniTask> tasks;
    const auto n = rng.uniform_int(0, 6);
    for (std::int64_t k = 0; k < n; ++k) {
      const std::int64_t p = rng.uniform_int(2, 24);
      const UniTask t{rng.uniform_int(1, std::max<std::int64_t>(1, p / 3)), p};
      tasks.push_back(t);
      if (!rm_schedulable_exact(tasks)) tasks.pop_back();
    }
    const std::int64_t p = rng.uniform_int(2, 24);
    const UniTask extra{rng.uniform_int(1, p), p};
    std::vector<UniTask> with = tasks;
    with.push_back(extra);
    const bool full = rm_schedulable_exact(with);
    ASSERT_EQ(rm_schedulable_with(tasks, extra), full) << "trial " << trial;
    (full ? accepted : refused) += 1;
  }
  EXPECT_GT(accepted, 200);
  EXPECT_GT(refused, 200);
}

TEST(LopezBound, KnownValues) {
  // Lopez et al.: EDF-FF schedules any set with U <= (beta*m + 1) /
  // (beta + 1) on m processors, beta = floor(1/u_max).
  EXPECT_EQ(lopez_edf_ff_bound(4, 1), Rational(5, 2));
  EXPECT_EQ(lopez_edf_ff_bound(4, 3), Rational(13, 4));
  EXPECT_EQ(lopez_edf_ff_bound(2, 2), Rational(5, 3));
  // m = 1 collapses to the uniprocessor EDF bound U <= 1 for every beta.
  EXPECT_EQ(lopez_edf_ff_bound(1, 1), Rational(1));
  EXPECT_EQ(lopez_edf_ff_bound(1, 7), Rational(1));
}

TEST(LopezBound, TightensAsTasksGetLighter) {
  // Larger beta (lighter tasks) raises the guaranteed utilization,
  // approaching m as beta -> infinity.
  for (const int m : {2, 4, 8}) {
    Rational prev(0);
    for (std::int64_t beta = 1; beta <= 16; ++beta) {
      const Rational bound = lopez_edf_ff_bound(m, beta);
      EXPECT_TRUE(prev < bound) << "m=" << m << " beta=" << beta;
      EXPECT_TRUE(bound < Rational(m)) << "m=" << m << " beta=" << beta;
      prev = bound;
    }
  }
}

TEST(LopezBeta, MinFloorOfInverseUtilization) {
  EXPECT_EQ(lopez_beta({}), 1);                  // weakest bound for no tasks
  EXPECT_EQ(lopez_beta({{1, 1}}), 1);            // u_max = 1
  EXPECT_EQ(lopez_beta({{1, 10}}), 10);          // light task
  EXPECT_EQ(lopez_beta({{2, 4}, {1, 3}}), 2);    // min(floor(4/2), floor(3/1))
  EXPECT_EQ(lopez_beta({{2, 7}, {1, 9}}), 3);    // floor(7/2) = 3
}

}  // namespace
}  // namespace pfair
