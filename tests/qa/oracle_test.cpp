#include "qa/oracle.h"

#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "core/priority.h"
#include "obs/json.h"
#include "qa/gen.h"

namespace pfair::qa {
namespace {

/// The shrunk repro the injected PD2 b-bit flip reduces to (found by
/// `pfair_fuzz --seed=1 --profile=heavy --inject-pd2-b-bit-flip=1`):
/// full utilization on 4 processors, one weight-1 task, two near-1
/// heavies.  Feasible, so correct PD2 schedules it without a miss.
FuzzCase flip_repro() {
  FuzzCase c;
  c.seed = 1;
  c.index = 2;
  c.profile = Profile::kHeavy;
  c.processors = 4;
  c.horizon = 31;
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(1, 1));
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(15, 16));
  c.tasks.add(make_task(14, 15));
  c.tasks.add(make_task(1, 10));
  return c;
}

TEST(OracleRegistry, FixedOrderAndNames) {
  const std::vector<Oracle>& registry = oracle_registry();
  const std::vector<std::string> expected = {
      "window-containment",  "lag-bounds",          "quantum-capacity",
      "verifier-agreement",  "optimal-differential", "partitioned-lopez",
      "erfair-deadline",     "erfair-work-conservation", "dynamic-safety",
      "bf-optimality",       "bf-boundary-differential", "run-optimality",
  };
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry[i].name, expected[i]) << "slot " << i;
  }
}

TEST(Oracles, PassOnHandBuiltFeasibleCase) {
  FuzzCase c;
  c.processors = 2;
  c.horizon = 60;
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(2, 3));
  c.tasks.add(make_task(3, 4));
  const CaseVerdict v = check_case(c);
  EXPECT_TRUE(v.ok) << v.oracle << ": " << v.detail;
}

TEST(Oracles, PassAcrossGeneratedCases) {
  const TaskSetGen gen(GenConfig{}, 0xace);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const CaseVerdict v = check_case(gen.make_case(i));
    EXPECT_TRUE(v.ok) << "case " << i << ": " << v.oracle << ": " << v.detail;
  }
}

TEST(Oracles, ReportsCoverEveryRegisteredOracle) {
  FuzzCase c;
  c.processors = 2;
  c.horizon = 40;
  c.tasks.add(make_task(1, 2));
  c.tasks.add(make_task(1, 4));
  const std::vector<OracleReport> reports = run_oracles(c);
  const std::vector<Oracle>& registry = oracle_registry();
  ASSERT_EQ(reports.size(), registry.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].name, registry[i].name) << "slot " << i;
    EXPECT_FALSE(reports[i].violated) << reports[i].name << ": " << reports[i].detail;
  }
  // A static periodic case applies the core oracles but not the
  // ERfair/dynamic ones.
  EXPECT_TRUE(reports[0].applied);   // window-containment
  EXPECT_TRUE(reports[2].applied);   // quantum-capacity
  EXPECT_FALSE(reports[8].applied);  // dynamic-safety
  // The successor-scheduler oracles are static-only and must apply here.
  EXPECT_TRUE(reports[9].applied);   // bf-optimality
  EXPECT_TRUE(reports[10].applied);  // bf-boundary-differential
  EXPECT_TRUE(reports[11].applied);  // run-optimality
}

TEST(Oracles, InvalidCaseYieldsSyntheticValidationViolation) {
  FuzzCase c;  // no tasks
  const std::vector<OracleReport> reports = run_oracles(c);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].name, "case-validation");
  EXPECT_TRUE(reports[0].violated);
  EXPECT_EQ(reports[0].detail, "case has no tasks");
  const CaseVerdict v = check_case(c);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.oracle, "case-validation");
}

/// Loads a case the way a case file arrives: JSON text through
/// case_from_json.
FuzzCase load_case(std::string_view text) {
  const std::optional<obs::json::Value> v = obs::json::parse(text);
  FuzzCase c;
  EXPECT_TRUE(v.has_value() && case_from_json(*v, c)) << text;
  return c;
}

TEST(Validate, CaseFilesWithInvalidTasksGetTheirMessageInEveryBuild) {
  // Loading must not stop at TaskSet::add's assert: each invalid task
  // reaches validate(), which names the first one.
  EXPECT_EQ(validate(load_case(R"({"profile":"uniform","tasks":[[0,4]]})")),
            "task 0 is invalid (execution 0, period 4)");
  EXPECT_EQ(validate(load_case(R"({"profile":"uniform","tasks":[[1,2],[5,4],[0,0]]})")),
            "task 1 is invalid (execution 5, period 4)");
  EXPECT_EQ(validate(load_case(R"({"profile":"heavy","tasks":[[1,3],[2,3],[1,-6]]})")),
            "task 2 is invalid (execution 1, period -6)");
}

TEST(Validate, ExactMessages) {
  FuzzCase c;
  EXPECT_EQ(validate(c), "case has no tasks");
  c.tasks.add(make_task(1, 2));
  c.processors = 0;
  EXPECT_EQ(validate(c), "processors must be >= 1 (got 0)");
  c.processors = 1;
  c.horizon = 0;
  EXPECT_EQ(validate(c), "horizon must be >= 1 (got 0)");
  c.horizon = 16;

  // An invalid task arrives the way external cases do, through the
  // JSON loader: TaskSet::add asserts validity, validate() names it.
  const FuzzCase bad_task = load_case(
      R"({"profile":"uniform","processors":1,"horizon":16,"tasks":[[1,2],[0,4]]})");
  EXPECT_EQ(validate(bad_task), "task 1 is invalid (execution 0, period 4)");

  FuzzCase overload = c;
  overload.tasks.add(make_task(1, 1));
  overload.tasks.add(make_task(1, 1));
  overload.processors = 2;
  EXPECT_EQ(validate(overload), "total weight 5/2 exceeds 2 processors");

  FuzzCase bad_join = c;
  bad_join.joins.push_back({0, make_task(1, 4)});
  EXPECT_EQ(validate(bad_join), "join 0 must be at time >= 1 (got 0)");

  FuzzCase bad_leave = c;
  bad_leave.leaves.push_back({2, 0});
  bad_leave.leaves.push_back({3, 7});
  EXPECT_EQ(validate(bad_leave), "leave 1 references unknown task 7");
}

TEST(Oracles, CatchInjectedPd2BBitFlip) {
  const FuzzCase c = flip_repro();
  {
    ScopedPd2BBitFlip flip;
    const CaseVerdict v = check_case(c);
    ASSERT_FALSE(v.ok);
    // The first PD2-trace oracle in registry order flags it.
    EXPECT_EQ(v.oracle, "window-containment");
    EXPECT_NE(v.detail.find("pseudo-deadline"), std::string::npos) << v.detail;
  }
  // With the flip released the same case is clean — the bug is in the
  // tie-break, not the case.
  const CaseVerdict v = check_case(c);
  EXPECT_TRUE(v.ok) << v.oracle << ": " << v.detail;
}

TEST(Oracles, DifferentialPanelSeesOptimalAlgorithmsDisagree) {
  const FuzzCase c = flip_repro();
  ScopedPd2BBitFlip flip;
  const std::vector<OracleReport> reports = run_oracles(c);
  bool differential_violated = false;
  for (const OracleReport& r : reports) {
    if (r.name == "optimal-differential") differential_violated = r.violated;
  }
  // PF and PD are unaffected by the flip; only PD2 misses, so the
  // panel's disagreement is attributed to PD2.
  EXPECT_TRUE(differential_violated);
}

}  // namespace
}  // namespace pfair::qa
