// CounterSink must reproduce every simulator's native engine::Metrics
// *bit-identically* from the event stream alone — doubles included.
// This is the contract that makes the instrumentation trustworthy: a
// mismatch here means an emission point is missing, duplicated, or in
// the wrong order relative to the native accumulation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/compare.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"
#include "obs/counter_sink.h"
#include "sim/pfair_sim.h"
#include "uniproc/cbs_sim.h"
#include "uniproc/uni_task.h"

namespace pfair {
namespace {

void expect_identical(const engine::Metrics& got, const engine::Metrics& want,
                      const std::string& label) {
  EXPECT_EQ(got.slots, want.slots) << label;
  EXPECT_EQ(got.busy_quanta, want.busy_quanta) << label;
  EXPECT_EQ(got.idle_quanta, want.idle_quanta) << label;
  EXPECT_EQ(got.jobs_released, want.jobs_released) << label;
  EXPECT_EQ(got.jobs_completed, want.jobs_completed) << label;
  EXPECT_EQ(got.deadline_misses, want.deadline_misses) << label;
  EXPECT_EQ(got.component_misses, want.component_misses) << label;
  EXPECT_EQ(got.preemptions, want.preemptions) << label;
  EXPECT_EQ(got.migrations, want.migrations) << label;
  EXPECT_EQ(got.context_switches, want.context_switches) << label;
  EXPECT_EQ(got.component_switches, want.component_switches) << label;
  EXPECT_EQ(got.scheduling_points, want.scheduling_points) << label;
  EXPECT_EQ(got.lag_violations, want.lag_violations) << label;
  EXPECT_EQ(got.served_jobs_completed, want.served_jobs_completed) << label;
  EXPECT_EQ(got.served_work, want.served_work) << label;
  EXPECT_EQ(got.deadline_postponements, want.deadline_postponements) << label;
  EXPECT_EQ(got.first_miss_time, want.first_miss_time) << label;
  // EXPECT_EQ on doubles is exact comparison — bit-identity, not
  // tolerance.  The sink adds in emission order, which each simulator
  // guarantees matches its own accumulation order.
  EXPECT_EQ(got.response_time.count(), want.response_time.count()) << label;
  EXPECT_EQ(got.response_time.mean(), want.response_time.mean()) << label;
  EXPECT_EQ(got.response_time.variance(), want.response_time.variance()) << label;
  EXPECT_EQ(got.response_time.min(), want.response_time.min()) << label;
  EXPECT_EQ(got.response_time.max(), want.response_time.max()) << label;
}

// Σ weight ≈ 1.82 on 2 processors; infeasible for global EDF at some
// points is fine — misses are part of what must be reproduced.
std::vector<UniTask> mp_workload() {
  return {{2, 4}, {2, 4}, {1, 3}, {1, 5}, {2, 7}};
}

std::vector<UniTask> up_workload() { return {{1, 4}, {1, 3}, {2, 5}}; }

void run_spec_and_compare(const engine::SchedulerSpec& spec,
                          const std::vector<UniTask>& workload, Time horizon) {
  const auto sim = engine::make_simulator(spec.kind, spec.config);
  for (const UniTask& t : workload)
    ASSERT_TRUE(sim->admit(engine::task_spec(t.execution, t.period))) << spec.name;
  obs::EventBus bus;
  obs::CounterSink counters;
  bus.add_sink(&counters);
  sim->attach_observer(&bus);
  sim->run_until(horizon);
  bus.flush();
  expect_identical(counters.metrics(), sim->metrics(), spec.name);
}

engine::SimulatorConfig on_two_processors() {
  engine::SimulatorConfig c;
  c.set_processors(2);
  return c;
}

TEST(CounterSink, Pd2BitIdentical) {
  run_spec_and_compare({"PD2", engine::SchedulerKind::kPfair, on_two_processors()},
                       mp_workload(), 420);
}

TEST(CounterSink, WrrBitIdentical) {
  engine::SimulatorConfig c = on_two_processors();
  c.wrr.frame = 16;
  run_spec_and_compare({"WRR", engine::SchedulerKind::kWrr, c}, mp_workload(), 420);
}

TEST(CounterSink, UniprocEdfBitIdentical) {
  run_spec_and_compare({"EDF", engine::SchedulerKind::kUniproc, {}}, up_workload(), 600);
}

TEST(CounterSink, UniprocRmBitIdentical) {
  engine::SimulatorConfig c;
  c.uniproc.algorithm = UniAlgorithm::kRM;
  run_spec_and_compare({"RM", engine::SchedulerKind::kUniproc, c}, up_workload(), 600);
}

TEST(CounterSink, PartitionedBitIdentical) {
  run_spec_and_compare({"EDF-FF", engine::SchedulerKind::kPartitioned, on_two_processors()},
                       mp_workload(), 420);
}

TEST(CounterSink, GlobalJobEdfBitIdentical) {
  // Dhall-style set: global EDF misses here, so the miss/first-miss
  // reconstruction is exercised too.
  const engine::SchedulerSpec edf{"global-EDF", engine::SchedulerKind::kGlobalJob,
                                  on_two_processors()};
  std::vector<UniTask> dhall = {{1, 10}, {1, 10}, {10, 11}};
  run_spec_and_compare(edf, dhall, 660);
  run_spec_and_compare(edf, mp_workload(), 420);
}

TEST(CounterSink, GlobalJobRmBitIdentical) {
  engine::SimulatorConfig c = on_two_processors();
  c.global_job.algorithm = UniAlgorithm::kRM;
  run_spec_and_compare({"global-RM", engine::SchedulerKind::kGlobalJob, c}, mp_workload(),
                       420);
}

TEST(CounterSink, CbsBitIdentical) {
  std::vector<AperiodicJob> jobs;
  for (Time t = 0; t < 400; t += 7) jobs.push_back({t, 2});
  CbsSimulator sim({{3, 10}, {1, 4}}, CbsConfig{{CbsServerSpec{1, 4, jobs}}});
  obs::EventBus bus;
  obs::CounterSink counters;
  bus.add_sink(&counters);
  sim.attach_observer(&bus);
  sim.run_until(800);
  bus.flush();
  expect_identical(counters.metrics(), sim.metrics(), "CBS");
  // The workload must actually exercise the CBS-specific counters.
  EXPECT_GT(sim.metrics().served_jobs_completed, 0u);
  EXPECT_GT(sim.metrics().deadline_postponements, 0u);
}

TEST(CounterSink, Pd2WithLagChecksBitIdentical) {
  PfairConfig cfg;
  cfg.processors = 2;
  cfg.check_lags = true;
  PfairSimulator sim(cfg);
  for (const UniTask& t : mp_workload())
    ASSERT_TRUE(sim.admit(engine::task_spec(t.execution, t.period)));
  obs::EventBus bus;
  obs::CounterSink counters;
  bus.add_sink(&counters);
  sim.attach_observer(&bus);
  sim.run_until(420);
  bus.flush();
  expect_identical(counters.metrics(), sim.metrics(), "PD2+lag checks");
}

TEST(CounterSink, SupertaskComponentMissesBitIdentical) {
  // Fig. 5 system: V = 1/2, W = X = 1/3, Y = 2/9, S = {T: 1/5, U: 1/45}
  // competing at 2/9 — the canonical component-miss scenario.
  PfairConfig cfg;
  cfg.processors = 2;
  PfairSimulator sim(cfg);
  sim.add_task({1, 2, 0, TaskKind::kPeriodic, "V"});
  sim.add_task({1, 3, 0, TaskKind::kPeriodic, "W"});
  sim.add_task({1, 3, 0, TaskKind::kPeriodic, "X"});
  SupertaskSpec st;
  st.components = {{1, 5, 0, TaskKind::kPeriodic, "T"}, {1, 45, 0, TaskKind::kPeriodic, "U"}};
  st.execution = 2;
  st.period = 9;
  st.name = "S";
  sim.add_supertask(st);
  sim.add_task({2, 9, 0, TaskKind::kPeriodic, "Y"});
  obs::EventBus bus;
  obs::CounterSink counters;
  bus.add_sink(&counters);
  sim.attach_observer(&bus);
  sim.run_until(90);
  bus.flush();
  expect_identical(counters.metrics(), sim.metrics(), "PD2+supertask");
  EXPECT_GT(sim.metrics().component_misses, 0u);
  EXPECT_EQ(sim.metrics().first_miss_time, 10);
}

TEST(CounterSink, ResetClearsEverything) {
  obs::CounterSink counters;
  counters.on_event({obs::EventKind::kDeadlineMiss, 5, 0, 0, 0.0});
  ASSERT_EQ(counters.metrics().deadline_misses, 1u);
  counters.reset();
  EXPECT_EQ(counters.metrics().deadline_misses, 0u);
  EXPECT_EQ(counters.metrics().first_miss_time, -1);
}

}  // namespace
}  // namespace pfair
