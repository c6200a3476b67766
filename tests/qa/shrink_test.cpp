#include "qa/shrink.h"

#include <gtest/gtest.h>

#include "core/priority.h"
#include "qa/gen.h"

namespace pfair::qa {
namespace {

/// Synthetic predicate: fails while any task has execution >= 2.  Lets
/// the shrinker's transformations be tested without simulator runs.
std::optional<CaseVerdict> has_fat_task(const FuzzCase& c) {
  for (const Task& t : c.tasks.tasks()) {
    if (t.execution >= 2) {
      CaseVerdict v;
      v.ok = false;
      v.oracle = "synthetic";
      v.detail = "a task with execution >= 2 exists";
      return v;
    }
  }
  return std::nullopt;
}

FuzzCase six_task_case() {
  FuzzCase c;
  c.processors = 3;
  c.horizon = 200;
  c.tasks.add(make_task(1, 4));
  c.tasks.add(make_task(2, 8));
  c.tasks.add(make_task(6, 9));
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(3, 5));
  c.tasks.add(make_task(1, 7));
  return c;
}

TEST(Shrinker, MinimisesToOneTaskUnderSyntheticPredicate) {
  const Shrinker shrinker(has_fat_task);
  const ShrinkResult res = shrinker.shrink(six_task_case());
  EXPECT_FALSE(res.verdict.ok);
  EXPECT_EQ(res.verdict.oracle, "synthetic");
  EXPECT_GT(res.transformations, 0);
  // Everything irrelevant is gone: one task, shortest horizon, one
  // processor — and the predicate still holds.
  ASSERT_EQ(res.minimal.tasks.size(), 1u);
  EXPECT_GE(res.minimal.tasks[0].execution, 2);
  EXPECT_EQ(res.minimal.horizon, 1);
  EXPECT_EQ(res.minimal.processors, 1);
  EXPECT_TRUE(has_fat_task(res.minimal).has_value());
  EXPECT_EQ(validate(res.minimal), "");
}

TEST(Shrinker, ShrinkingIsIdempotent) {
  const Shrinker shrinker(has_fat_task);
  const ShrinkResult once = shrinker.shrink(six_task_case());
  const ShrinkResult twice = shrinker.shrink(once.minimal);
  EXPECT_EQ(twice.transformations, 0);
  EXPECT_EQ(case_to_json(twice.minimal).dump(), case_to_json(once.minimal).dump());
}

TEST(Shrinker, PassingInputReturnsUnchanged) {
  FuzzCase c;
  c.processors = 1;
  c.horizon = 16;
  c.tasks.add(make_task(1, 4));  // no execution >= 2 anywhere
  const Shrinker shrinker(has_fat_task);
  const ShrinkResult res = shrinker.shrink(c);
  EXPECT_TRUE(res.verdict.ok);
  EXPECT_EQ(res.transformations, 0);
  EXPECT_EQ(case_to_json(res.minimal).dump(), case_to_json(c).dump());
}

TEST(Shrinker, DropsScriptEventsAndRemapsLeaves) {
  // Predicate: fails while a leave event targeting the *last* initial
  // task exists — dropping earlier tasks must keep that leave pointing
  // at it (index remapping), and all joins are irrelevant.
  const auto predicate = [](const FuzzCase& c) -> std::optional<CaseVerdict> {
    for (const LeaveEvent& l : c.leaves) {
      if (l.task + 1 == c.tasks.size()) {
        CaseVerdict v;
        v.ok = false;
        v.oracle = "synthetic";
        return v;
      }
    }
    return std::nullopt;
  };
  FuzzCase c;
  c.processors = 2;
  c.horizon = 64;
  c.tasks.add(make_task(1, 4));
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(1, 8));
  c.joins.push_back({5, make_task(1, 6)});
  c.joins.push_back({9, make_task(1, 3)});
  c.leaves.push_back({7, 2});
  const Shrinker shrinker(predicate);
  const ShrinkResult res = shrinker.shrink(c);
  EXPECT_FALSE(res.verdict.ok);
  EXPECT_TRUE(res.minimal.joins.empty());
  ASSERT_EQ(res.minimal.leaves.size(), 1u);
  ASSERT_EQ(res.minimal.tasks.size(), 1u);
  EXPECT_EQ(res.minimal.leaves[0].task, 0u);
  EXPECT_EQ(validate(res.minimal), "");
}

TEST(Shrinker, SameOraclePredicateIgnoresOtherOracles) {
  // A clean case fails no oracle, so the pinned predicate passes it.
  FuzzCase c;
  c.processors = 1;
  c.horizon = 32;
  c.tasks.add(make_task(1, 2));
  EXPECT_FALSE(same_oracle_predicate("window-containment")(c).has_value());
  // An *invalid* case trips the synthetic case-validation oracle, which
  // is not the pinned one — still no match.
  FuzzCase invalid;
  EXPECT_FALSE(same_oracle_predicate("window-containment")(invalid).has_value());
  EXPECT_TRUE(same_oracle_predicate("case-validation")(invalid).has_value());
}

TEST(Shrinker, RealFailureShrinksToFixpointUnderInjectedFlip) {
  // The shrunk flip repro (see oracle_test.cpp) is already minimal for
  // the campaign predicate: shrinking it again changes nothing.
  FuzzCase c;
  c.processors = 4;
  c.horizon = 31;
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(1, 1));
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(15, 16));
  c.tasks.add(make_task(14, 15));
  c.tasks.add(make_task(1, 10));
  ScopedPd2BBitFlip flip;
  const Shrinker shrinker(same_oracle_predicate("window-containment"));
  const ShrinkResult res = shrinker.shrink(c);
  EXPECT_FALSE(res.verdict.ok);
  EXPECT_EQ(res.transformations, 0);
  EXPECT_EQ(case_to_json(res.minimal).dump(), case_to_json(c).dump());
}

}  // namespace
}  // namespace pfair::qa
