// Conformance of the dynamic-task request API across every factory
// kind: TaskSpec admission, capability probing, reject bookkeeping, and
// the dynamic entry points (join / request_leave / request_reweight)
// where supported.
#include "engine/simulator.h"

#include <gtest/gtest.h>

#include "engine/factory.h"

namespace pfair::engine {
namespace {

TEST(TaskSpec, ValidityMatchesTaskRules) {
  EXPECT_TRUE(task_spec(1, 1).valid());
  EXPECT_TRUE(task_spec(2, 5).valid());
  EXPECT_FALSE(task_spec(0, 5).valid());
  EXPECT_FALSE(task_spec(2, 0).valid());
  EXPECT_FALSE(task_spec(6, 5).valid());  // weight above one
}

TEST(RequestApi, EveryKindAdmitsAValidSpecAtTimeZero) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto sim = make_simulator(kind);
    EXPECT_TRUE(sim->admit(task_spec(1, 5))) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_admitted, 1u) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_rejected, 0u) << to_string(kind);
  }
}

TEST(RequestApi, EveryKindRejectsAnInvalidSpecAndCountsIt) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto sim = make_simulator(kind);
    EXPECT_FALSE(sim->admit(task_spec(0, 5))) << to_string(kind);
    EXPECT_FALSE(sim->admit(task_spec(6, 5))) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_admitted, 0u) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_rejected, 2u) << to_string(kind);
  }
}

TEST(RequestApi, OnlyPfairReportsDynamicCapability) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto sim = make_simulator(kind);
    EXPECT_EQ(sim->can_dynamic(), kind == SchedulerKind::kPfair) << to_string(kind);
  }
}

TEST(RequestApi, NonDynamicKindsAnswerDynamicRequestsWithRefusals) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    if (kind == SchedulerKind::kPfair) continue;
    const auto sim = make_simulator(kind);
    ASSERT_TRUE(sim->admit(task_spec(1, 5))) << to_string(kind);
    EXPECT_FALSE(sim->join(task_spec(1, 5)).has_value()) << to_string(kind);
    EXPECT_FALSE(sim->request_leave(0).has_value()) << to_string(kind);
    EXPECT_FALSE(sim->request_reweight(0, task_spec(1, 7)).has_value())
        << to_string(kind);
  }
}

TEST(RequestApi, PfairJoinLeaveReweightThroughTheBaseInterface) {
  SimulatorConfig cfg;
  cfg.pfair.processors = 2;
  const auto sim = make_simulator(SchedulerKind::kPfair, cfg);
  ASSERT_TRUE(sim->admit(task_spec(1, 2)));
  sim->run_until(4);

  const std::optional<TaskId> id = sim->join(task_spec(1, 4));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(sim->metrics().tasks_admitted, 2u);

  // Known id: a departure time is offered; the same id again keeps the
  // original answer (already departing).
  const std::optional<Time> free = sim->request_leave(*id);
  ASSERT_TRUE(free.has_value());
  EXPECT_GE(*free, sim->now());

  // Out-of-range ids are answered, never UB: the daemon feeds these
  // straight from untrusted request streams.
  EXPECT_FALSE(sim->request_leave(12345).has_value());
  EXPECT_FALSE(sim->request_reweight(12345, task_spec(1, 3)).has_value());

  sim->run_until(*free + 1);
  EXPECT_EQ(sim->metrics().deadline_misses, 0u);
}

TEST(RequestApi, PfairJoinRejectionIsCounted) {
  SimulatorConfig cfg;
  cfg.pfair.processors = 1;
  const auto sim = make_simulator(SchedulerKind::kPfair, cfg);
  ASSERT_TRUE(sim->admit(task_spec(1, 1)));  // weight 1 fills the machine
  sim->run_until(2);
  EXPECT_FALSE(sim->join(task_spec(1, 2)).has_value());
  EXPECT_EQ(sim->metrics().tasks_rejected, 1u);
}

TEST(RequestApi, WrrRejectsLateAdmissionAndCountsIt) {
  SimulatorConfig cfg;
  cfg.wrr.processors = 1;
  const auto sim = make_simulator(SchedulerKind::kWrr, cfg);
  ASSERT_TRUE(sim->admit(task_spec(1, 4)));
  sim->run_until(1);
  EXPECT_FALSE(sim->admit(task_spec(1, 4)));
  EXPECT_EQ(sim->metrics().tasks_rejected, 1u);
}

TEST(RequestApi, SpecNameReachesThePfairTask) {
  const auto sim = make_simulator(SchedulerKind::kPfair);
  EXPECT_TRUE(sim->admit(task_spec(1, 4, "camera")));
  // The name is carried for observability (Perfetto tracks); admission
  // behaviour must not depend on it.
  EXPECT_EQ(sim->metrics().tasks_admitted, 1u);
}

}  // namespace
}  // namespace pfair::engine
