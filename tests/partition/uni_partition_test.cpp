#include "partition/uni_partition.h"

#include <gtest/gtest.h>

#include "uniproc/analysis.h"
#include "workload/generator.h"

namespace pfair {
namespace {

TEST(UniPartition, RmNeedsAtLeastAsManyProcessorsAsEdf) {
  // RM's schedulable region is a subset of EDF's on each processor, so
  // RM-FF can never beat EDF-FF, and RM-LL can never beat RM-exact.
  Rng rng(0x43);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const std::vector<UniTask> tasks = generate_uni_tasks(trial_rng, 12, 4.0, 100);
    const int edf = min_processors_uni(tasks, Heuristic::kFirstFit,
                                       Acceptance::kEdfUtilization);
    const int rm_exact =
        min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kRmExact);
    const int rm_ll =
        min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kRmLiuLayland);
    EXPECT_LE(edf, rm_exact) << "trial " << trial;
    EXPECT_LE(rm_exact, rm_ll) << "trial " << trial;
  }
}

TEST(UniPartition, HarmonicTasksPackPerfectlyUnderRmExact) {
  // Harmonic periods are RM-schedulable to utilization 1: RM-exact
  // packs them like EDF, RM-LL cannot.
  std::vector<UniTask> tasks;
  for (int k = 0; k < 4; ++k) tasks.push_back({1, 2});   // 4 x 0.5
  for (int k = 0; k < 4; ++k) tasks.push_back({1, 4});   // 4 x 0.25
  // Total 3.0: EDF/RM-exact fit on 3 processors.
  EXPECT_EQ(min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kEdfUtilization), 3);
  EXPECT_EQ(min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kRmExact), 3);
  EXPECT_GT(min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kRmLiuLayland), 3);
}

TEST(UniPartition, EveryAssignedProcessorIsActuallySchedulable) {
  Rng rng(0x44);
  for (int trial = 0; trial < 10; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const std::vector<UniTask> tasks = generate_uni_tasks(trial_rng, 16, 5.0, 60);
    for (const Acceptance acc :
         {Acceptance::kEdfUtilization, Acceptance::kRmLiuLayland, Acceptance::kRmExact}) {
      const auto res = partition_uni(tasks, 1 << 10, Heuristic::kBestFit, acc);
      ASSERT_TRUE(res.feasible) << acceptance_name(acc);
      std::vector<std::vector<UniTask>> procs(
          static_cast<std::size_t>(res.processors_used));
      for (std::size_t i = 0; i < tasks.size(); ++i)
        procs[static_cast<std::size_t>(res.assignment[i])].push_back(tasks[i]);
      for (const auto& members : procs) {
        switch (acc) {
          case Acceptance::kEdfUtilization:
            EXPECT_TRUE(edf_schedulable(members));
            break;
          case Acceptance::kRmLiuLayland:
            EXPECT_TRUE(rm_schedulable_ll(members));
            break;
          case Acceptance::kRmExact:
            EXPECT_TRUE(rm_schedulable_exact(members));
            break;
        }
      }
    }
  }
}

TEST(UniPartition, RespectsProcessorCap) {
  std::vector<UniTask> tasks(5, UniTask{3, 5});  // 5 x 0.6
  EXPECT_FALSE(
      partition_uni(tasks, 4, Heuristic::kFirstFit, Acceptance::kEdfUtilization).feasible);
  EXPECT_TRUE(
      partition_uni(tasks, 5, Heuristic::kFirstFit, Acceptance::kEdfUtilization).feasible);
}

TEST(UniPartition, DhallStyleHighUtilizationTasksDefeatRmLl) {
  // m+1 tasks just above 1/2 utilization: RM-LL (like every heuristic)
  // needs m+1 processors; each pair exceeds the 2-task LL bound anyway.
  std::vector<UniTask> tasks(5, UniTask{51, 100});
  EXPECT_EQ(min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kRmLiuLayland), 5);
  EXPECT_EQ(min_processors_uni(tasks, Heuristic::kFirstFit, Acceptance::kEdfUtilization), 5);
}

}  // namespace
}  // namespace pfair
