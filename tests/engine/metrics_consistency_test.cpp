// Cross-scheduler invariants of the unified engine::Metrics, exercised
// through the engine::Simulator interface alone: the same periodic
// workload goes through PD2, WRR and partitioned EDF-FF and every
// scheduler's counters must satisfy the accounting identities the
// metrics struct promises (DESIGN.md Sec. 4).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/compare.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "sim/pfair_sim.h"
#include "uniproc/uni_task.h"

namespace pfair {
namespace {

// Σ weight = 2/4 + 2/4 + 1/3 + 1/5 + 2/7 ≈ 1.82 ≤ M = 2.
std::vector<UniTask> workload() {
  return {{2, 4}, {2, 4}, {1, 3}, {1, 5}, {2, 7}};
}

constexpr int kProcessors = 2;
constexpr Time kHorizon = 420;  // lcm(4,3,5,7) = 420: whole hyperperiod

engine::SimulatorConfig config() {
  engine::SimulatorConfig c;
  c.set_processors(kProcessors);
  c.wrr.frame = 16;
  return c;
}

const engine::SchedulerSpec kPd2{"PD2", engine::SchedulerKind::kPfair, config()};
const engine::SchedulerSpec kWrr{"WRR", engine::SchedulerKind::kWrr, config()};

/// `spec`'s simulator with workload() admitted through the interface.
std::unique_ptr<engine::Simulator> loaded(const engine::SchedulerSpec& spec) {
  auto sim = engine::make_simulator(spec.kind, spec.config);
  for (const UniTask& t : workload())
    EXPECT_TRUE(sim->admit(engine::task_spec(t.execution, t.period))) << spec.name;
  return sim;
}

TEST(EngineMetrics, QuantumSimsAccountEverySlot) {
  // busy + idle must equal slots x processors for every quantum-driven
  // scheduler, no matter how it fills the slots.
  for (const engine::SchedulerSpec& spec : {kPd2, kWrr}) {
    const auto sim = loaded(spec);
    sim->run_until(kHorizon);
    const engine::Metrics& m = sim->metrics();
    EXPECT_EQ(m.slots, static_cast<std::uint64_t>(kHorizon)) << spec.name;
    EXPECT_EQ(m.busy_quanta + m.idle_quanta,
              m.slots * static_cast<std::uint64_t>(kProcessors))
        << spec.name;
  }
}

TEST(EngineMetrics, ContextSwitchesDominatePreemptions) {
  // A preemption charges the later switch-in of the preempted task, so
  // switch-ins can never undercount preemptions — under any scheduler.
  const std::vector<engine::SchedulerSpec> specs = {
      kPd2, kWrr, {"EDF-FF", engine::SchedulerKind::kPartitioned, config()}};
  const auto results = engine::compare_schedulers(workload(), specs, kHorizon);
  ASSERT_EQ(results.size(), specs.size());
  for (const engine::CompareResult& r : results) {
    ASSERT_TRUE(r.feasible) << r.name;
    EXPECT_GE(r.metrics.context_switches, r.metrics.preemptions) << r.name;
  }
}

TEST(EngineMetrics, Pd2MissFreeWithinCapacity) {
  // Pfair optimality via the unified counters: Σ wt ≤ M ⇒ no miss, and
  // the sentinel first_miss_time stays -1.
  const auto sim = loaded(kPd2);
  sim->run_until(10 * kHorizon);
  EXPECT_EQ(sim->metrics().deadline_misses, 0u);
  EXPECT_EQ(sim->metrics().first_miss_time, -1);
}

TEST(EngineMetrics, AdmissionThroughTheInterface) {
  // Tasks admitted via engine::Simulator::admit() are indistinguishable
  // from constructor-loaded ones.
  PfairConfig pc;
  pc.processors = kProcessors;
  PfairSimulator constructed(pc);
  for (const UniTask& t : workload()) constructed.add_task(make_task(t.execution, t.period));

  const auto grown = loaded(kPd2);
  constructed.run_until(kHorizon);
  grown->run_until(kHorizon);
  EXPECT_EQ(constructed.metrics().busy_quanta, grown->metrics().busy_quanta);
  EXPECT_EQ(constructed.metrics().jobs_completed, grown->metrics().jobs_completed);
  EXPECT_EQ(constructed.metrics().deadline_misses, grown->metrics().deadline_misses);
}

TEST(EngineMetrics, MergeTakesMaxOfSlotsNotSum) {
  // Per-processor schedulers of one partitioned system simulate the
  // same wall-clock slots: merging must not report P x the horizon.
  engine::Metrics a;
  a.slots = 420;
  a.busy_quanta = 100;
  engine::Metrics b;
  b.slots = 420;
  b.busy_quanta = 150;
  a.merge(b);
  EXPECT_EQ(a.slots, 420u);
  EXPECT_EQ(a.busy_quanta, 250u);  // per-processor work still sums

  engine::Metrics c;
  c.slots = 500;  // a processor that ran longer dominates
  a.merge(c);
  EXPECT_EQ(a.slots, 500u);
  a.merge(engine::Metrics{});  // merging an idle processor changes nothing
  EXPECT_EQ(a.slots, 500u);
}

TEST(EngineMetrics, MergeSumsCountersAndKeepsEarliestMiss) {
  engine::Metrics a;
  a.busy_quanta = 3;
  a.fast_forwarded_slots = 11;
  a.scheduling_points = 9;
  a.record_miss(10);
  a.response_time.add(2.0);
  engine::Metrics b;
  b.busy_quanta = 4;
  b.fast_forwarded_slots = 5;
  b.scheduling_points = 6;
  b.record_miss(7);
  b.response_time.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.busy_quanta, 7u);
  EXPECT_EQ(a.fast_forwarded_slots, 16u);  // sum semantics (work skipped)
  EXPECT_EQ(a.scheduling_points, 15u);     // invocation work also sums
  EXPECT_EQ(a.deadline_misses, 2u);
  EXPECT_EQ(a.first_miss_time, 7);
  EXPECT_EQ(a.response_time.count(), 2u);
}

}  // namespace
}  // namespace pfair
