// Conformance of the BF and RUN roster additions to the engine
// contracts every other stack already obeys: factory construction with
// non-default configs, request-API admission/refusal bookkeeping,
// metrics-merge invariants for the new scheduling_points counter, and
// seeded determinism — byte-identical reruns, ParallelSweep --jobs
// parity, and the PD2 leg across shard counts.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/factory.h"
#include "engine/parallel.h"
#include "obs/bus.h"
#include "obs/jsonl_sink.h"
#include "sim/bf_sim.h"
#include "sim/run_sim.h"
#include "sim/verifier.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pfair {
namespace {

using engine::SchedulerKind;
using engine::SimulatorConfig;
using engine::task_spec;

const std::vector<UniTask>& workload() {
  static const std::vector<UniTask> tasks = {{1, 4}, {2, 8}, {1, 5}, {3, 16}};
  return tasks;
}

void admit_all(engine::Simulator& sim) {
  for (const UniTask& t : workload())
    ASSERT_TRUE(sim.admit(task_spec(t.execution, t.period)));
}

// --- factory round-trip with non-default configs --------------------

TEST(RosterFactory, BfConfigReachesTheSimulator) {
  SimulatorConfig cfg;
  cfg.bf.processors = 2;
  const std::unique_ptr<engine::Simulator> via = make_simulator(SchedulerKind::kBf, cfg);
  BfSimulator direct(TaskSet{}, cfg.bf);
  admit_all(*via);
  admit_all(direct);
  via->run_until(160);
  direct.run_until(160);
  EXPECT_EQ(via->metrics().scheduling_points, direct.metrics().scheduling_points);
  EXPECT_EQ(via->metrics().busy_quanta, direct.metrics().busy_quanta);
  EXPECT_EQ(via->metrics().deadline_misses, 0u);
}

TEST(RosterFactory, RunConfigReachesTheSimulator) {
  SimulatorConfig cfg;
  cfg.run.processors = 2;
  const std::unique_ptr<engine::Simulator> via = make_simulator(SchedulerKind::kRun, cfg);
  RunSimulator direct(cfg.run);
  admit_all(*via);
  admit_all(direct);
  via->run_until(160);
  direct.run_until(160);
  EXPECT_EQ(via->metrics().scheduling_points, direct.metrics().scheduling_points);
  EXPECT_EQ(via->metrics().busy_quanta, direct.metrics().busy_quanta);
  EXPECT_EQ(via->metrics().deadline_misses, 0u);
}

// --- request-API conformance ----------------------------------------

TEST(RosterRequestApi, BothKindsRejectLateAdmissionAndCountIt) {
  for (const SchedulerKind kind : {SchedulerKind::kBf, SchedulerKind::kRun}) {
    const auto sim = make_simulator(kind);
    ASSERT_TRUE(sim->admit(task_spec(1, 4))) << to_string(kind);
    sim->run_until(1);
    EXPECT_FALSE(sim->admit(task_spec(1, 4))) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_admitted, 1u) << to_string(kind);
    EXPECT_EQ(sim->metrics().tasks_rejected, 1u) << to_string(kind);
  }
}

TEST(RosterRequestApi, BothKindsRefuseTheDynamicProtocol) {
  for (const SchedulerKind kind : {SchedulerKind::kBf, SchedulerKind::kRun}) {
    const auto sim = make_simulator(kind);
    EXPECT_FALSE(sim->can_dynamic()) << to_string(kind);
    ASSERT_TRUE(sim->admit(task_spec(1, 4))) << to_string(kind);
    EXPECT_FALSE(sim->join(task_spec(1, 8)).has_value()) << to_string(kind);
    EXPECT_FALSE(sim->request_leave(0).has_value()) << to_string(kind);
    EXPECT_FALSE(sim->request_reweight(0, task_spec(1, 8)).has_value())
        << to_string(kind);
  }
}

TEST(RosterRequestApi, RunRefusesOverloadAndHyperperiodOverflowExactly) {
  // RUN's admission is capacity-checked — the documented contrast with
  // PD2, which admits anything and lets misses surface.
  RunSimulator over(RunConfig{1, true});
  ASSERT_TRUE(over.admit(task_spec(1, 2)));
  ASSERT_TRUE(over.admit(task_spec(1, 2)));  // exactly fills M = 1
  EXPECT_FALSE(over.admit(task_spec(1, 1000000)));  // one quantum too many
  EXPECT_EQ(over.metrics().tasks_rejected, 1u);

  RunSimulator lcm_cap(RunConfig{4, true});
  ASSERT_TRUE(lcm_cap.admit(task_spec(1, 999999999)));
  // Consecutive periods are coprime: the tick grid would need their
  // product, far past kMaxLcm.
  EXPECT_FALSE(lcm_cap.admit(task_spec(1, 999999998)));
  EXPECT_EQ(lcm_cap.metrics().tasks_admitted, 1u);
  EXPECT_EQ(lcm_cap.metrics().tasks_rejected, 1u);
}

// --- metrics-merge invariants ---------------------------------------

TEST(RosterMetrics, MergeSumsSchedulingPointsAcrossKinds) {
  BfSimulator bf(TaskSet{}, BfConfig{2, false});
  RunSimulator run(RunConfig{2, false});
  admit_all(bf);
  admit_all(run);
  bf.run_until(80);
  run.run_until(80);
  const std::uint64_t bf_points = bf.metrics().scheduling_points;
  const std::uint64_t run_points = run.metrics().scheduling_points;
  ASSERT_GT(bf_points, 0u);
  ASSERT_GT(run_points, 0u);
  engine::Metrics merged = bf.metrics();
  merged.merge(run.metrics());
  EXPECT_EQ(merged.scheduling_points, bf_points + run_points);
  EXPECT_EQ(merged.slots, 80u);  // max, not sum: same wall-clock horizon
  EXPECT_EQ(merged.busy_quanta,
            bf.metrics().busy_quanta + run.metrics().busy_quanta);
}

// --- seeded determinism ---------------------------------------------

TEST(RosterDeterminism, BfRerunIsByteIdentical) {
  const auto run_once = [](ScheduleTrace* trace_out) {
    BfSimulator sim(TaskSet{}, BfConfig{2, true});
    for (const UniTask& t : workload())
      EXPECT_TRUE(sim.admit(task_spec(t.execution, t.period)));
    sim.run_until(160);
    *trace_out = sim.trace();
    return sim.metrics();
  };
  ScheduleTrace a, b;
  const engine::Metrics ma = run_once(&a);
  const engine::Metrics mb = run_once(&b);
  EXPECT_EQ(ma.scheduling_points, mb.scheduling_points);
  EXPECT_EQ(ma.preemptions, mb.preemptions);
  EXPECT_EQ(ma.migrations, mb.migrations);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t)
    EXPECT_EQ(a[t].proc_to_task, b[t].proc_to_task) << "slot " << t;
  // And the rerun is not merely self-consistent but correct.  BF honours
  // job boundaries, not per-subtask windows within an interval.
  VerifyOptions opts;
  opts.processors = 2;
  opts.check_windows = false;
  opts.check_lags = false;
  opts.check_job_boundaries = true;
  TaskSet tasks;
  for (const UniTask& t : workload()) tasks.add(make_task(t.execution, t.period));
  const VerifyResult vr = verify_schedule(a, tasks, opts);
  EXPECT_TRUE(vr.ok) << vr.first_violation;
}

TEST(RosterDeterminism, RunRerunIsByteIdentical) {
  const auto run_once = [](std::vector<RunSegment>* segments_out) {
    RunSimulator sim(RunConfig{2, true});
    for (const UniTask& t : workload())
      EXPECT_TRUE(sim.admit(task_spec(t.execution, t.period)));
    sim.run_until(160);
    *segments_out = sim.segments();
    return sim.metrics();
  };
  std::vector<RunSegment> a, b;
  const engine::Metrics ma = run_once(&a);
  const engine::Metrics mb = run_once(&b);
  EXPECT_EQ(ma.scheduling_points, mb.scheduling_points);
  EXPECT_EQ(ma.preemptions, mb.preemptions);
  EXPECT_EQ(a, b);
  TaskSet tasks;
  for (const UniTask& t : workload()) tasks.add(make_task(t.execution, t.period));
  const RunVerifyResult v =
      verify_run_segments(a, tasks, 80 /* lcm(4,8,5,16) */, 160, 2);
  EXPECT_TRUE(v.ok) << v.first_violation;
}

TEST(RosterDeterminism, SweepResultsIdenticalAcrossJobs) {
  // The --jobs contract: per-trial results are a pure function of
  // (seed, trial), so worker count cannot leak into a BF/RUN sweep.
  const auto sweep_once = [](int jobs) {
    engine::ParallelSweep sweep(jobs, 0xb0f);
    return sweep.run(11, 24, [](long long, Rng& rng) {
      const TaskSet tasks = generate_feasible_taskset(rng, 2, 6, 16);
      BfSimulator bf(TaskSet{}, BfConfig{2, false});
      RunSimulator run(RunConfig{2, false});
      double acc = 0.0;
      for (TaskId i = 0; i < tasks.size(); ++i) {
        const auto spec = task_spec(tasks[i].execution, tasks[i].period);
        acc += bf.admit(spec) ? 1.0 : 0.0;
        acc += run.admit(spec) ? 1.0 : 0.0;
      }
      bf.run_until(96);
      run.run_until(96);
      acc += static_cast<double>(bf.metrics().scheduling_points) * 1e6;
      acc += static_cast<double>(run.metrics().scheduling_points) * 1e3;
      acc += static_cast<double>(bf.metrics().deadline_misses +
                                 run.metrics().deadline_misses) *
             1e9;
      return acc;
    });
  };
  const std::vector<double> serial = sweep_once(1);
  const std::vector<double> par = sweep_once(2);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], par[i]) << "trial " << i;
}

TEST(RosterDeterminism, SplitRunsMatchOneCall) {
  // A run_until that stops where nothing happens must not add a
  // scheduling point (re-selecting on every resume adds one to most sets
  // split at t = 1).  Metrics rows and JSONL event streams of split runs
  // must equal one call's.
  const Time horizon = 1200;
  const auto row = [](const engine::Metrics& m) {
    return std::vector<std::uint64_t>{m.tasks_admitted,   m.slots,
                                      m.busy_quanta,      m.idle_quanta,
                                      m.jobs_released,    m.jobs_completed,
                                      m.deadline_misses,  m.preemptions,
                                      m.migrations,       m.context_switches,
                                      m.scheduling_points};
  };
  Rng rng(0x5b17);
  for (int trial = 0; trial < 24; ++trial) {
    const int m = 2 + trial % 3;
    const TaskSet tasks = generate_feasible_taskset(rng, m, 12, 48);
    for (const SchedulerKind kind : {SchedulerKind::kBf, SchedulerKind::kRun}) {
      const auto run = [&](Time split, std::string* events) {
        SimulatorConfig cfg;
        cfg.set_processors(m);
        const auto sim = make_simulator(kind, cfg);
        std::ostringstream os;
        obs::JsonlSink sink(os);
        obs::EventBus bus;
        bus.add_sink(&sink);
        sim->attach_observer(&bus);
        for (TaskId i = 0; i < tasks.size(); ++i)
          EXPECT_TRUE(sim->admit(task_spec(tasks[i].execution, tasks[i].period)));
        if (split > 0) sim->run_until(split);
        sim->run_until(horizon);
        bus.flush();
        *events = os.str();
        return row(sim->metrics());
      };
      std::string whole_events;
      const std::vector<std::uint64_t> whole = run(0, &whole_events);
      for (const Time split : {1, 7, 100, 1001}) {
        std::string events;
        EXPECT_EQ(run(split, &events), whole)
            << to_string(kind) << " trial " << trial << " split at " << split;
        EXPECT_EQ(events, whole_events)
            << to_string(kind) << " trial " << trial << " split at " << split;
      }
    }
  }
}

TEST(RosterDeterminism, Pd2RerunIsByteIdentical) {
  // The differential matrix compares BF/RUN against the PD2 leg; that
  // leg must itself be deterministic or the comparison is noise.
  const auto pd2_once = [](ScheduleTrace* trace_out) {
    SimulatorConfig cfg;
    cfg.pfair.processors = 2;
    cfg.pfair.record_trace = true;
    const auto sim = make_simulator(SchedulerKind::kPfair, cfg);
    for (const UniTask& t : workload())
      EXPECT_TRUE(sim->admit(task_spec(t.execution, t.period)));
    sim->run_until(160);
    *trace_out = dynamic_cast<const PfairSimulator&>(*sim).trace();
    return sim->metrics();
  };
  ScheduleTrace a, b;
  const engine::Metrics one = pd2_once(&a);
  const engine::Metrics two = pd2_once(&b);
  EXPECT_EQ(one.busy_quanta, two.busy_quanta);
  EXPECT_EQ(one.deadline_misses, 0u);
  EXPECT_EQ(one.jobs_completed, two.jobs_completed);
  EXPECT_EQ(one.preemptions, two.preemptions);
  EXPECT_EQ(one.migrations, two.migrations);
  EXPECT_EQ(one.context_switches, two.context_switches);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t)
    EXPECT_EQ(a[t].proc_to_task, b[t].proc_to_task) << "slot " << t;
}

}  // namespace
}  // namespace pfair
