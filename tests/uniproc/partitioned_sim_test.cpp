#include "uniproc/partitioned_sim.h"

#include <gtest/gtest.h>

#include "workload/generator.h"

namespace pfair {
namespace {

TEST(PartitionedSim, PlacesAndSchedulesFeasibleSet) {
  // 4 x 0.5: needs 2 processors, no misses once placed.
  std::vector<UniTask> tasks(4, UniTask{1, 2});
  PartitionConfig cfg;
  PartitionedSimulator sim(tasks, cfg);
  EXPECT_TRUE(sim.all_tasks_placed());
  EXPECT_EQ(sim.processors(), 2);
  sim.run_until(1000);
  const engine::Metrics& m = sim.metrics();
  EXPECT_EQ(m.deadline_misses, 0u);
  EXPECT_EQ(m.jobs_completed, m.jobs_released);
}

TEST(PartitionedSim, ReportsUnplacedTasksUnderProcessorCap) {
  std::vector<UniTask> tasks(3, UniTask{2, 3});  // 3 x 2/3 on 2 procs
  PartitionConfig cfg;
  cfg.max_processors = 2;
  PartitionedSimulator sim(tasks, cfg);
  EXPECT_FALSE(sim.all_tasks_placed());
  EXPECT_EQ(sim.unplaced().size(), 1u);
  sim.run_until(300);
  // The two placed tasks still run cleanly.
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(PartitionedSim, NoMigrationsByConstruction) {
  // Structural: a task's assignment never changes, so every job of a
  // task completes on its processor.  (There is no migration counter to
  // read because the concept does not exist here; assert assignment is
  // total and stable instead.)
  Rng rng(0x77a);
  const std::vector<UniTask> tasks = generate_uni_tasks(rng, 12, 3.0, 60);
  PartitionConfig cfg;
  PartitionedSimulator sim(tasks, cfg);
  ASSERT_TRUE(sim.all_tasks_placed());
  for (const int a : sim.assignment()) EXPECT_GE(a, 0);
}

TEST(PartitionedSim, RandomFeasibleSystemsRunCleanly) {
  Rng rng(0x77b);
  for (int trial = 0; trial < 10; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const std::vector<UniTask> tasks = generate_uni_tasks(trial_rng, 16, 3.5, 80);
    PartitionConfig cfg;
    cfg.heuristic = trial % 2 == 0 ? Heuristic::kFirstFit : Heuristic::kBestFit;
    PartitionedSimulator sim(tasks, cfg);
    ASSERT_TRUE(sim.all_tasks_placed());
    sim.run_until(5000);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "trial " << trial;
  }
}

TEST(PartitionedSim, RmBackendHonoursRmAcceptance) {
  // RM packs with response-time analysis, so the placed tasks run
  // without misses under RM.
  Rng rng(0x77c);
  const std::vector<UniTask> tasks = generate_uni_tasks(rng, 10, 2.5, 40);
  PartitionConfig cfg;
  cfg.algorithm = UniAlgorithm::kRM;
  PartitionedSimulator sim(tasks, cfg);
  ASSERT_TRUE(sim.all_tasks_placed());
  sim.run_until(10000);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(PartitionedSim, RmPacksByResponseTimeAnalysis) {
  // (2, 5) and (4, 7) total 0.97, which EDF's test accepts on one
  // processor, but the RM response time of (4, 7) is 8 > 7: under RM
  // the pair takes two processors, and neither ensemble misses.
  const std::vector<UniTask> tasks = {{2, 5}, {4, 7}};
  for (const UniAlgorithm algorithm : {UniAlgorithm::kEDF, UniAlgorithm::kRM}) {
    PartitionConfig cfg;
    cfg.algorithm = algorithm;
    PartitionedSimulator sim(tasks, cfg);
    EXPECT_EQ(sim.processors(), algorithm == UniAlgorithm::kRM ? 2 : 1);
    sim.run_until(70);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  }
}

TEST(PartitionedSim, RefusedAdmitLeavesThePackingAsItWas) {
  // One pack per admit: a refused task changes neither the assignment
  // nor the processors, and the counts reach the aggregate.
  PartitionConfig cfg;
  cfg.max_processors = 2;
  PartitionedSimulator sim({}, cfg);
  for (const auto& [e, p] : {std::pair{2, 3}, std::pair{2, 3}, std::pair{2, 3}, std::pair{1, 3}})
    sim.admit(engine::task_spec(e, p));
  EXPECT_EQ(sim.assignment(), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(sim.processors(), 2);
  EXPECT_TRUE(sim.all_tasks_placed());
  EXPECT_EQ(sim.metrics().tasks_admitted, 3u);
  EXPECT_EQ(sim.metrics().tasks_rejected, 1u);
}

TEST(PartitionedSim, AggregateSumsPerProcessorMetrics) {
  std::vector<UniTask> tasks = {{1, 2}, {1, 2}, {1, 4}};
  PartitionConfig cfg;
  PartitionedSimulator sim(tasks, cfg);
  sim.run_until(400);
  const engine::Metrics agg = sim.metrics();
  engine::Metrics manual;
  for (int p = 0; p < sim.processors(); ++p) manual.merge(sim.processor_metrics(p));
  EXPECT_EQ(agg.jobs_released, manual.jobs_released);
  EXPECT_EQ(agg.context_switches, manual.context_switches);
}

}  // namespace
}  // namespace pfair
