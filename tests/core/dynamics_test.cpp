#include "core/dynamics.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/weight_sum.h"

namespace pfair {
namespace {

TEST(MayJoin, ExactCapacityBoundary) {
  // Eq. (2) as PfairSimulator::join tests it: the join fits while the
  // total stays <= M.
  WeightSum three_halves;
  for (int i = 0; i < 3; ++i) three_halves.add(1, 2);
  EXPECT_EQ(three_halves.with(Weight{1, 2}).against(2), WeightSum::Side::kWithin);  // exactly 2
  EXPECT_EQ(three_halves.with(Weight{2, 3}).against(2), WeightSum::Side::kAbove);   // 13/6 > 2
  EXPECT_EQ(WeightSum().with(Weight{1, 1}).against(1), WeightSum::Side::kWithin);
}

TEST(EarliestLeave, NeverScheduledTaskLeavesImmediately) {
  EXPECT_EQ(earliest_leave_time(1, 3, 0, 0), 0);
}

TEST(EarliestLeave, LightTaskUsesDeadlinePlusBBit) {
  // weight 1/3, subtask 1: d = 3, b = 0 -> leave at 3.
  EXPECT_EQ(earliest_leave_time(1, 3, 1, 0), 3);
  // weight 2/5, subtask 1: d = ceil(5/2) = 3, b = 1 -> leave at 4.
  EXPECT_EQ(earliest_leave_time(2, 5, 1, 0), 4);
}

TEST(EarliestLeave, HeavyTaskWaitsPastGroupDeadline) {
  // weight 8/11, subtask 3: group deadline 8 -> leave at 9 ("after").
  EXPECT_EQ(earliest_leave_time(8, 11, 3, 0), 9);
}

TEST(EarliestLeave, OffsetShiftsTheRule) {
  EXPECT_EQ(earliest_leave_time(1, 3, 1, 100), 103);
  EXPECT_EQ(earliest_leave_time(8, 11, 3, 50), 59);
}

TEST(EarliestLeave, LeaveTimeNeverBeforeSubtaskDeadline) {
  for (std::int64_t p = 1; p <= 16; ++p) {
    for (std::int64_t e = 1; e <= p; ++e) {
      for (SubtaskIndex i = 1; i <= 2 * e; ++i) {
        EXPECT_GE(earliest_leave_time(e, p, i, 0), subtask_deadline(e, p, i))
            << e << "/" << p << " i=" << i;
      }
    }
  }
}

// The leave rules read d(T_i) + b(T_i) (light) and the group deadline
// (heavy), so a weight scaled by k up to 10^15 must free at the same
// time as its small twin, although i*p passes 2^63 for the large ones.
TEST(EarliestLeave, ScaledWeightsLeaveLikeTheirTwinsWhenProductsPassInt64) {
  const std::pair<std::int64_t, std::int64_t> weights[] = {
      {1, 9}, {4, 9}, {1, 2}, {5, 9}, {2, 3}, {7, 9}, {8, 9}, {3, 7}, {6, 7}, {7, 8}};
  std::size_t bad = 0;
  for (const auto& [e, p] : weights) {
    for (std::int64_t k = 1; k <= 1'000'000'000'000'000; k *= 1000) {
      if (k * p > 9'000'000'000'000'000) continue;
      for (SubtaskIndex i = 1; i <= 4000; ++i) {
        const Time want = earliest_leave_time(e, p, i, 7);
        const Time got = earliest_leave_time(k * e, k * p, i, 7);
        if (got == want) continue;
        if (bad++ == 0) {
          ADD_FAILURE() << "first difference: (" << e << ", " << p << ") scaled by " << k
                        << ", subtask " << i << ": " << got << " vs " << want;
        }
      }
    }
  }
  EXPECT_EQ(bad, 0u);
}

}  // namespace
}  // namespace pfair
