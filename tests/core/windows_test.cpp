#include "core/windows.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>

namespace pfair {
namespace {

// ---------------------------------------------------------------------------
// Fig. 1(a): task T of weight 8/11.  The paper states r(T1) = 0,
// d(T1) = 2, |w(T1)| = 2; b(Ti) = 1 for 1 <= i <= 7 and b(T8) = 0;
// group deadline of T3 is 8 and of T7 is 11.
// ---------------------------------------------------------------------------

TEST(Windows, Fig1aFirstSubtask) {
  EXPECT_EQ(subtask_release(8, 11, 1), 0);
  EXPECT_EQ(subtask_deadline(8, 11, 1), 2);
  EXPECT_EQ(window_length(8, 11, 1), 2);
}

TEST(Windows, Fig1aAllWindowsOfFirstJob) {
  // Releases and deadlines of T1..T8 read off Fig. 1(a).
  constexpr Time r[] = {0, 1, 2, 4, 5, 6, 8, 9};
  constexpr Time d[] = {2, 3, 5, 6, 7, 9, 10, 11};
  for (SubtaskIndex i = 1; i <= 8; ++i) {
    EXPECT_EQ(subtask_release(8, 11, i), r[i - 1]) << "i=" << i;
    EXPECT_EQ(subtask_deadline(8, 11, i), d[i - 1]) << "i=" << i;
  }
}

TEST(Windows, Fig1aBBits) {
  for (SubtaskIndex i = 1; i <= 7; ++i) EXPECT_EQ(b_bit(8, 11, i), 1) << "i=" << i;
  EXPECT_EQ(b_bit(8, 11, 8), 0);
}

TEST(Windows, Fig1aGroupDeadlines) {
  EXPECT_EQ(group_deadline(8, 11, 3), 8);
  EXPECT_EQ(group_deadline(8, 11, 7), 11);
}

TEST(Windows, Fig1aSecondJobShiftsByPeriod) {
  // T9..T16 are the second job; every window shifts by p = 11.
  for (SubtaskIndex i = 1; i <= 8; ++i) {
    EXPECT_EQ(subtask_release(8, 11, i + 8), subtask_release(8, 11, i) + 11);
    EXPECT_EQ(subtask_deadline(8, 11, i + 8), subtask_deadline(8, 11, i) + 11);
    EXPECT_EQ(b_bit(8, 11, i + 8), b_bit(8, 11, i));
  }
}

// ---------------------------------------------------------------------------
// Structural properties from Sec. 2.
// ---------------------------------------------------------------------------

TEST(Windows, ConsecutiveWindowsOverlapByAtMostOneSlot) {
  // r(T_{i+1}) is either d(T_i) - 1 or d(T_i).
  for (std::int64_t p = 1; p <= 24; ++p) {
    for (std::int64_t e = 1; e <= p; ++e) {
      for (SubtaskIndex i = 1; i <= 3 * e; ++i) {
        const Time d = subtask_deadline(e, p, i);
        const Time rn = subtask_release(e, p, i + 1);
        EXPECT_TRUE(rn == d - 1 || rn == d) << e << "/" << p << " i=" << i;
        // b-bit encodes exactly this distinction.
        EXPECT_EQ(b_bit(e, p, i), rn == d - 1 ? 1 : 0);
      }
    }
  }
}

TEST(Windows, WindowLengthsWithinKnownBounds) {
  // |w(T_i)| = ceil(i/w) - floor((i-1)/w) is either ceil(1/w) or
  // ceil(1/w) + 1... in particular heavy tasks (w >= 1/2) only have
  // windows of length 2 or 3, and weight-1 tasks only length 1.
  for (std::int64_t p = 1; p <= 24; ++p) {
    for (std::int64_t e = 1; e <= p; ++e) {
      const Time base = ceil_div(p, e);
      for (SubtaskIndex i = 1; i <= 3 * e; ++i) {
        const Time len = window_length(e, p, i);
        EXPECT_GE(len, base == 1 ? 1 : base - 0) << e << "/" << p;
        EXPECT_LE(len, base + 1) << e << "/" << p << " i=" << i;
        if (e == p) EXPECT_EQ(len, 1);
        if (2 * e >= p && e < p) {
          EXPECT_GE(len, 2);
          EXPECT_LE(len, 3);
        }
      }
    }
  }
}

TEST(Windows, EveryJobGetsExactlyEWindowsPerPeriod) {
  // Subtasks (k-1)e+1 .. ke all have windows within [(k-1)p, kp].
  for (std::int64_t p = 1; p <= 20; ++p) {
    for (std::int64_t e = 1; e <= p; ++e) {
      for (std::int64_t k = 1; k <= 3; ++k) {
        const SubtaskIndex first = job_first_subtask(e, k);
        EXPECT_EQ(subtask_release(e, p, first), (k - 1) * p);
        EXPECT_EQ(subtask_deadline(e, p, k * e), k * p);
      }
    }
  }
}

TEST(Windows, GroupDeadlineClosedFormMatchesDefinition) {
  // Exhaustive check over all heavy weights with p <= 40, three jobs
  // deep: the closed form must agree with the paper's definition.
  for (std::int64_t p = 1; p <= 40; ++p) {
    for (std::int64_t e = (p + 1) / 2; e <= p; ++e) {
      for (SubtaskIndex i = 1; i <= 3 * e; ++i) {
        EXPECT_EQ(group_deadline(e, p, i), group_deadline_by_definition(e, p, i))
            << "weight " << e << "/" << p << " i=" << i;
      }
    }
  }
}

TEST(Windows, GroupDeadlineZeroForLightTasks) {
  EXPECT_EQ(group_deadline(1, 3, 1), 0);
  EXPECT_EQ(group_deadline(2, 5, 4), 0);
  EXPECT_EQ(group_deadline(5, 11, 2), 0);
}

TEST(Windows, GroupDeadlineAtLeastSubtaskDeadlineForHeavyTasks) {
  for (std::int64_t p = 2; p <= 30; ++p) {
    for (std::int64_t e = (p + 1) / 2; e < p; ++e) {
      for (SubtaskIndex i = 1; i <= 2 * e; ++i) {
        EXPECT_GE(group_deadline(e, p, i), subtask_deadline(e, p, i))
            << e << "/" << p << " i=" << i;
      }
    }
  }
}

TEST(Windows, GroupDeadlineWeightHalfEqualsDeadline) {
  // Weight 1/2: every window has length 2 and b = 0, so each cascade
  // ends immediately: D(T_i) = d(T_i).
  for (SubtaskIndex i = 1; i <= 10; ++i) {
    EXPECT_EQ(b_bit(1, 2, i), 0);
    EXPECT_EQ(group_deadline(1, 2, i), subtask_deadline(1, 2, i));
  }
}

TEST(Windows, WeightThreeQuartersGroupDeadlines) {
  // Worked example: weight 3/4, d = 2,3,4; cascades all end at 4.
  EXPECT_EQ(group_deadline(3, 4, 1), 4);
  EXPECT_EQ(group_deadline(3, 4, 2), 4);
  EXPECT_EQ(group_deadline(3, 4, 3), 4);
  // Second job shifts by p = 4.
  EXPECT_EQ(group_deadline(3, 4, 4), 8);
}

TEST(Windows, UnitWeightTaskHasUnitWindows) {
  for (SubtaskIndex i = 1; i <= 20; ++i) {
    EXPECT_EQ(subtask_release(7, 7, i), i - 1);
    EXPECT_EQ(subtask_deadline(7, 7, i), i);
    EXPECT_EQ(b_bit(7, 7, i), 0);
  }
}

TEST(Windows, ReleaseTimesAreNonDecreasing) {
  for (std::int64_t p = 1; p <= 16; ++p) {
    for (std::int64_t e = 1; e <= p; ++e) {
      for (SubtaskIndex i = 1; i < 4 * e; ++i) {
        EXPECT_LE(subtask_release(e, p, i), subtask_release(e, p, i + 1));
        EXPECT_LT(subtask_deadline(e, p, i), subtask_deadline(e, p, i + 1) + 1);
      }
    }
  }
}

// Scaling a weight's (e, p) by k leaves every window unchanged, so
// (k*e, k*p) must answer like (e, p) (weight 1 aside: its conventional
// group deadline d + p is not a window property).  pfaird accepts periods up to
// 9e15, where i*p passes 2^63 after ~1000 subtasks and d*(p-e), k*p in
// the group-deadline closed form even earlier.
TEST(Windows, ScaledWeightsKeepTheirWindowsWhenProductsPassInt64) {
  const std::pair<std::int64_t, std::int64_t> weights[] = {
      {1, 9}, {4, 9}, {1, 2}, {5, 9}, {2, 3}, {7, 9}, {8, 9}, {3, 7}, {6, 7}, {7, 8}};
  std::size_t checked = 0;
  std::size_t bad = 0;
  for (const auto& [e, p] : weights) {
    for (std::int64_t k = 1; k <= 1'000'000'000'000'000; k *= 1000) {
      if (k * p > 9'000'000'000'000'000) continue;
      for (SubtaskIndex i = 1; i <= 4000; ++i) {
        ++checked;
        const bool same = subtask_release(k * e, k * p, i) == subtask_release(e, p, i) &&
                          subtask_deadline(k * e, k * p, i) == subtask_deadline(e, p, i) &&
                          b_bit(k * e, k * p, i) == b_bit(e, p, i) &&
                          group_deadline(k * e, k * p, i) == group_deadline(e, p, i);
        if (same) continue;
        if (bad++ == 0) {
          ADD_FAILURE() << "first difference: (" << e << ", " << p << ") scaled by " << k
                        << ", subtask " << i << ": deadline " << subtask_deadline(k * e, k * p, i)
                        << " vs " << subtask_deadline(e, p, i) << ", group deadline "
                        << group_deadline(k * e, k * p, i) << " vs " << group_deadline(e, p, i);
        }
      }
    }
  }
  EXPECT_EQ(bad, 0u) << "of " << checked;
}

}  // namespace
}  // namespace pfair
