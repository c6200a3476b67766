#include "core/priority.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace pfair {
namespace {

SubtaskRef ref(TaskId id, std::int64_t e, std::int64_t p, SubtaskIndex i, Time offset = 0) {
  return make_subtask_ref(id, e, p, i, offset);
}

TEST(MakeSubtaskRef, FillsDerivedFields) {
  const SubtaskRef s = ref(3, 8, 11, 3);
  EXPECT_EQ(s.task, 3u);
  EXPECT_EQ(s.release, 2);
  EXPECT_EQ(s.deadline, 5);
  EXPECT_EQ(s.b, 1);
  EXPECT_EQ(s.group_dl, 8);
}

TEST(MakeSubtaskRef, OffsetShiftsAllAbsoluteTimes) {
  const SubtaskRef base = ref(0, 8, 11, 3, 0);
  const SubtaskRef moved = ref(0, 8, 11, 3, 100);
  EXPECT_EQ(moved.release, base.release + 100);
  EXPECT_EQ(moved.deadline, base.deadline + 100);
  EXPECT_EQ(moved.group_dl, base.group_dl + 100);
  EXPECT_EQ(moved.b, base.b);
}

TEST(Pd2Priority, EarlierDeadlineWins) {
  const SubtaskRef a = ref(0, 1, 2, 1);  // d = 2
  const SubtaskRef b = ref(1, 1, 5, 1);  // d = 5
  EXPECT_TRUE(pd2_higher_priority(a, b));
  EXPECT_FALSE(pd2_higher_priority(b, a));
}

TEST(Pd2Priority, BBitBreaksDeadlineTies) {
  // weight 2/3 subtask 1: d = 2, b = 1.  weight 1/2 subtask 1: d = 2,
  // b = 0.  The b = 1 subtask must win regardless of id order.
  const SubtaskRef b1 = ref(5, 2, 3, 1);
  const SubtaskRef b0 = ref(0, 1, 2, 1);
  ASSERT_EQ(b1.deadline, b0.deadline);
  ASSERT_EQ(b1.b, 1);
  ASSERT_EQ(b0.b, 0);
  EXPECT_TRUE(pd2_higher_priority(b1, b0));
  EXPECT_FALSE(pd2_higher_priority(b0, b1));
}

TEST(Pd2Priority, LaterGroupDeadlineWinsAmongBOne) {
  // Both heavy, equal deadline and b = 1, different group deadlines.
  // weight 8/11 T3: d=5, b=1, D=8.   weight 4/5 T3: d=ceil(15/4)=4 no...
  // pick weight 6/7 T4: d = ceil(28/6) = 5, b = 1 (28 % 6 != 0),
  // D = ceil(ceil(5*1/7)*7/1) = 7.
  const SubtaskRef later = ref(9, 8, 11, 3);  // D = 8
  const SubtaskRef earlier = ref(0, 6, 7, 4);  // D = 7
  ASSERT_EQ(later.deadline, earlier.deadline);
  ASSERT_EQ(later.b, 1);
  ASSERT_EQ(earlier.b, 1);
  ASSERT_GT(later.group_dl, earlier.group_dl);
  EXPECT_TRUE(pd2_higher_priority(later, earlier));
  EXPECT_FALSE(pd2_higher_priority(earlier, later));
}

TEST(Pd2Priority, FullTieBrokenByTaskId) {
  const SubtaskRef a = ref(0, 8, 11, 3);
  const SubtaskRef b = ref(1, 8, 11, 3);
  EXPECT_TRUE(pd2_higher_priority(a, b));
  EXPECT_FALSE(pd2_higher_priority(b, a));
}

TEST(PfPriority, AgreesWithPd2OnDeadlineAndBBit) {
  const SubtaskRef a = ref(0, 1, 2, 1);
  const SubtaskRef b = ref(1, 1, 5, 1);
  EXPECT_TRUE(pf_higher_priority(a, b));
  const SubtaskRef b1 = ref(5, 2, 3, 1);
  const SubtaskRef b0 = ref(0, 1, 2, 1);
  EXPECT_TRUE(pf_higher_priority(b1, b0));
}

TEST(PfPriority, SuccessorChainBreaksTies) {
  // Two heavy tasks with equal (d, b) at the compared subtask but
  // diverging successor chains: PF compares the chains.  8/11 T3 and
  // 6/7 T4 share d = 5, b = 1.  Successors: 8/11 T4 d = 6 vs 6/7 T5
  // d = 6; 8/11 T5 d = 7 vs 6/7 T6 d = 7; 8/11 T6 d = 9 vs 6/7 T7
  // d = ceil(49/6) = 9; 8/11 T7 d = 10 vs 6/7 T8 d = ceil(56/6) = 10;
  // 8/11 T8 d = 11 b = 0 vs 6/7 T9 d = ceil(63/6) = 11 ... chains track
  // closely; whatever the outcome, it must be antisymmetric and match
  // PD2's group-deadline ordering here (PF refines PD2's information).
  const SubtaskRef a = ref(0, 8, 11, 3);
  const SubtaskRef b = ref(1, 6, 7, 4);
  EXPECT_NE(pf_higher_priority(a, b), pf_higher_priority(b, a));
  EXPECT_EQ(pf_higher_priority(a, b), pd2_higher_priority(a, b));
}

TEST(AllRules, StrictWeakOrderingOnRandomInputs) {
  Rng rng(11);
  std::vector<SubtaskRef> refs;
  for (TaskId id = 0; id < 60; ++id) {
    const std::int64_t p = rng.uniform_int(1, 16);
    const std::int64_t e = rng.uniform_int(1, p);
    const SubtaskIndex i = rng.uniform_int(1, 2 * e);
    refs.push_back(ref(id, e, p, i));
  }
  const auto check = [&](auto higher, const char* name) {
    for (const SubtaskRef& a : refs) {
      EXPECT_FALSE(higher(a, a)) << name << ": irreflexivity";
      for (const SubtaskRef& b : refs) {
        if (a.task == b.task) continue;
        EXPECT_NE(higher(a, b), higher(b, a)) << name << ": totality/antisymmetry";
        for (const SubtaskRef& c : refs) {
          if (higher(a, b) && higher(b, c)) {
            EXPECT_TRUE(higher(a, c)) << name << ": transitivity";
          }
        }
      }
    }
  };
  check(pd2_higher_priority, "PD2");
  check(pd_higher_priority, "PD");
  check(epdf_higher_priority, "EPDF");
  check(pf_higher_priority, "PF");
}

TEST(SubtaskPriorityFunctor, DispatchesToSelectedRule) {
  const SubtaskRef gd_later = ref(9, 8, 11, 3);
  const SubtaskRef gd_earlier = ref(0, 6, 7, 4);
  // Under EPDF the group deadline is ignored, so the id decides.
  EXPECT_TRUE(SubtaskPriority(Algorithm::kEPDF)(gd_earlier, gd_later));
  // Under PD2 the later group deadline wins.
  EXPECT_TRUE(SubtaskPriority(Algorithm::kPD2)(gd_later, gd_earlier));
}

// The packed-key fast path must decide every pair exactly as the legacy
// tie-break chain does, including pairs where one or both refs carry no
// key.  Small periods and offsets make equal deadlines common, so b-bit
// and group-deadline ties are exercised, and refs are duplicated under
// other task ids so the final id tie-break is reached too.
TEST(SubtaskPriorityFunctor, PackedKeysMatchLegacyChainOnRandomRefs) {
  Rng rng(17);
  for (const Algorithm alg :
       {Algorithm::kPD2, Algorithm::kPD, Algorithm::kEPDF, Algorithm::kPF}) {
    std::vector<SubtaskRef> refs;
    for (TaskId id = 0; id < 120; ++id) {
      const std::int64_t p = rng.uniform_int(2, 12);
      // Heavy (weight >= 1/2) and light tasks in equal measure.
      const std::int64_t e =
          rng.uniform_int(0, 1) == 0 ? rng.uniform_int((p + 1) / 2, p) : rng.uniform_int(1, p / 2);
      const SubtaskIndex i = rng.uniform_int(1, 2 * e);
      const Time offset = rng.uniform_int(0, 3);
      // One ref in four is keyless (kWRR never packs).
      const Algorithm key_alg = rng.uniform_int(0, 3) == 0 ? Algorithm::kWRR : alg;
      if (id % 10 == 9) {
        SubtaskRef twin = refs[static_cast<std::size_t>(rng.uniform_int(0, id - 1))];
        twin.task = id;
        pack_subtask_ref(twin, key_alg);
        refs.push_back(twin);
      } else {
        refs.push_back(make_subtask_ref(id, e, p, i, offset, key_alg));
      }
    }
    const SubtaskPriority pri(alg);
    std::size_t keyed_pairs = 0, mixed_pairs = 0, b_ties = 0, group_ties = 0;
    for (const SubtaskRef& a : refs) {
      for (const SubtaskRef& b : refs) {
        ASSERT_EQ(pri(a, b), pri.compare_legacy(a, b))
            << algorithm_name(alg) << ": tasks " << a.task << " vs " << b.task;
        const bool ka = a.key_alg != kKeyNone;
        const bool kb = b.key_alg != kKeyNone;
        if (ka && kb) ++keyed_pairs;
        if (ka != kb) ++mixed_pairs;
        if (a.task != b.task && a.deadline == b.deadline) {
          if (a.b != b.b) ++b_ties;
          if (a.b == 1 && b.b == 1) ++group_ties;
        }
      }
    }
    EXPECT_GT(b_ties, 0u) << algorithm_name(alg);
    EXPECT_GT(group_ties, 0u) << algorithm_name(alg);
    if (alg != Algorithm::kPF) {  // PF never packs
      EXPECT_GT(keyed_pairs, 0u) << algorithm_name(alg);
      EXPECT_GT(mixed_pairs, 0u) << algorithm_name(alg);
    }
  }
}

TEST(AlgorithmName, AllNamed) {
  EXPECT_STREQ(algorithm_name(Algorithm::kPD2), "PD2");
  EXPECT_STREQ(algorithm_name(Algorithm::kPF), "PF");
  EXPECT_STREQ(algorithm_name(Algorithm::kPD), "PD");
  EXPECT_STREQ(algorithm_name(Algorithm::kEPDF), "EPDF");
}

TEST(PdPriority, RefinesPd2) {
  // Wherever PD2 expresses a strict preference not caused by the id
  // tie-break, PD must agree.
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::int64_t pa = rng.uniform_int(1, 12);
    const std::int64_t ea = rng.uniform_int(1, pa);
    const std::int64_t pb = rng.uniform_int(1, 12);
    const std::int64_t eb = rng.uniform_int(1, pb);
    const SubtaskRef a = ref(0, ea, pa, rng.uniform_int(1, 2 * ea));
    const SubtaskRef b = ref(1, eb, pb, rng.uniform_int(1, 2 * eb));
    const bool tie = a.deadline == b.deadline && a.b == b.b &&
                     (a.b == 0 || a.group_dl == b.group_dl);
    if (!tie) {
      EXPECT_EQ(pd_higher_priority(a, b), pd2_higher_priority(a, b));
    }
  }
}

TEST(PdPriority, HeavierTaskWinsWhenCrossProductsPassInt64) {
  // Equal deadlines (9e15) and b = 0: the last subtask of a job each.
  // The weights 3/8 and 5/9 decide; e_a * p_b = 2.7e31 and e_b * p_a =
  // 4e31 both pass int64, and periods this large carry no packed key.
  const std::int64_t q = 1'000'000'000'000'000;
  const SubtaskRef light = ref(0, 3 * q, 8 * q, 3 * q, /*offset=*/q);
  const SubtaskRef heavy = ref(1, 5 * q, 9 * q, 5 * q);
  ASSERT_EQ(light.deadline, heavy.deadline);
  ASSERT_EQ(light.b, 0);
  ASSERT_EQ(heavy.b, 0);
  EXPECT_TRUE(pd_higher_priority(heavy, light));
  EXPECT_FALSE(pd_higher_priority(light, heavy));
  // Equal weights fall through to the task id.
  const SubtaskRef twin = ref(2, 5 * q, 9 * q, 5 * q);
  EXPECT_TRUE(pd_higher_priority(heavy, twin));
  EXPECT_FALSE(pd_higher_priority(twin, heavy));
}

}  // namespace
}  // namespace pfair
