#include "qa/gen.h"

#include <gtest/gtest.h>

#include "qa/oracle.h"

namespace pfair::qa {
namespace {

TEST(TaskSetGen, PureInSeedAndIndex) {
  // Two independent generators with the same (config, seed) must yield
  // byte-identical cases in any order — the replay contract.
  const GenConfig config;
  const TaskSetGen a(config, 42);
  const TaskSetGen b(config, 42);
  for (const std::uint64_t i : {0u, 7u, 31u, 100u}) {
    EXPECT_EQ(case_to_json(a.make_case(i)).dump(), case_to_json(b.make_case(i)).dump())
        << "case " << i;
  }
  // Reverse order on the same generator: no hidden state.
  const std::string late = case_to_json(a.make_case(90)).dump();
  const std::string early = case_to_json(a.make_case(3)).dump();
  EXPECT_EQ(case_to_json(a.make_case(90)).dump(), late);
  EXPECT_EQ(case_to_json(a.make_case(3)).dump(), early);
}

TEST(TaskSetGen, DifferentSeedsDiffer) {
  const GenConfig config;
  const TaskSetGen a(config, 1);
  const TaskSetGen b(config, 2);
  int distinct = 0;
  for (std::uint64_t i = 0; i < 20; ++i) {
    if (case_to_json(a.make_case(i)).dump() != case_to_json(b.make_case(i)).dump())
      ++distinct;
  }
  EXPECT_GE(distinct, 15);
}

TEST(TaskSetGen, EveryCaseIsWellFormedAndFeasible) {
  const GenConfig config;
  const TaskSetGen gen(config, 0xfeed);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FuzzCase c = gen.make_case(i);
    EXPECT_EQ(validate(c), "") << "case " << i;
    EXPECT_GE(c.processors, config.min_processors) << "case " << i;
    EXPECT_LE(c.processors, config.max_processors) << "case " << i;
    EXPECT_GE(c.horizon, config.min_horizon) << "case " << i;
    EXPECT_LE(c.horizon, config.max_horizon) << "case " << i;
    EXPECT_TRUE(c.tasks.total_weight() <= Rational(c.processors)) << "case " << i;
  }
}

TEST(TaskSetGen, CyclesThroughProfilesByDefault) {
  const TaskSetGen gen(GenConfig{}, 5);
  const std::vector<Profile>& profiles = all_profiles();
  ASSERT_EQ(profiles.size(), 7u);
  for (std::uint64_t i = 0; i < 28; ++i) {
    EXPECT_EQ(gen.make_case(i).profile, profiles[i % profiles.size()]) << "case " << i;
  }
}

TEST(TaskSetGen, OnlyProfilePins) {
  GenConfig config;
  config.only_profile = Profile::kDynamic;
  const TaskSetGen gen(config, 5);
  bool any_script = false;
  for (std::uint64_t i = 0; i < 30; ++i) {
    const FuzzCase c = gen.make_case(i);
    EXPECT_EQ(c.profile, Profile::kDynamic) << "case " << i;
    any_script = any_script || c.has_dynamics();
  }
  EXPECT_TRUE(any_script);
}

TEST(TaskSetGen, HeavyProfileReachesFullUtilization) {
  GenConfig config;
  config.only_profile = Profile::kHeavy;
  const TaskSetGen gen(config, 11);
  int full = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const FuzzCase c = gen.make_case(i);
    if (c.tasks.total_weight() == Rational(c.processors)) ++full;
  }
  // fill_to_capacity fires with probability 2/3 on this profile.
  EXPECT_GE(full, 15);
}

TEST(TaskSetGen, DegenerateProfileHitsBoundaryWeights) {
  GenConfig config;
  config.only_profile = Profile::kDegenerate;
  const TaskSetGen gen(config, 23);
  bool weight_one = false;
  bool lightest = false;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const FuzzCase c = gen.make_case(i);
    for (const Task& t : c.tasks.tasks()) {
      if (t.execution == t.period) weight_one = true;
      if (t.execution == 1 && t.period > 1) lightest = true;
    }
  }
  EXPECT_TRUE(weight_one);
  EXPECT_TRUE(lightest);
}

TEST(TaskSetGen, EarlyReleaseMixGatedByConfig) {
  GenConfig with;
  const TaskSetGen gen_with(with, 3);
  int er = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (gen_with.make_case(i).kind == TaskKind::kEarlyRelease) ++er;
  }
  EXPECT_GT(er, 5);  // the 1-in-4 coin must land sometimes

  GenConfig without;
  without.allow_early_release = false;
  const TaskSetGen gen_without(without, 3);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gen_without.make_case(i).kind, TaskKind::kPeriodic) << "case " << i;
  }
}

TEST(TaskSetGen, JsonRoundTrip) {
  const TaskSetGen gen(GenConfig{}, 77);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const FuzzCase c = gen.make_case(i);
    const obs::json::Value v = case_to_json(c);
    FuzzCase back;
    ASSERT_TRUE(case_from_json(v, back)) << "case " << i;
    EXPECT_EQ(case_to_json(back).dump(), v.dump()) << "case " << i;
  }
}

TEST(TaskSetGen, GtestSnippetNamesSeedAndCase) {
  const TaskSetGen gen(GenConfig{}, 9);
  const FuzzCase c = gen.make_case(4);
  const std::string snippet = case_to_gtest(c);
  EXPECT_NE(snippet.find("TEST(FuzzRepro, Seed9Case4)"), std::string::npos) << snippet;
  EXPECT_NE(snippet.find("qa::check_case(c)"), std::string::npos) << snippet;
}

}  // namespace
}  // namespace pfair::qa
