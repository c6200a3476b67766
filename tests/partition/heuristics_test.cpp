#include "partition/heuristics.h"

#include <gtest/gtest.h>

#include "partition/uni_partition.h"
#include "workload/generator.h"

namespace pfair {
namespace {

// The heuristics through the one packer over uniprocessor tasks, under
// the exact EDF acceptance test (load <= 1).
UniPartitionResult edf_partition(const std::vector<UniTask>& tasks, int m, Heuristic h) {
  return partition_uni(tasks, m, h, Acceptance::kEdfUtilization);
}

/// Exact per-processor loads of a packing.
std::vector<Rational> loads_of(const std::vector<UniTask>& tasks, const UniPartitionResult& r) {
  std::vector<Rational> loads(static_cast<std::size_t>(r.processors_used), Rational(0));
  for (std::size_t i = 0; i < tasks.size(); ++i)
    if (r.assignment[i] >= 0)
      loads[static_cast<std::size_t>(r.assignment[i])] +=
          Rational(tasks[i].execution, tasks[i].period);
  return loads;
}

TEST(Partition, FirstFitPacksExactThirds) {
  // Nine tasks of utilization 1/3 fit exactly on 3 processors — only if
  // the arithmetic is exact (doubles would sometimes refuse the third
  // task on a processor).
  const std::vector<UniTask> thirds(9, UniTask{1, 3});
  const UniPartitionResult r = edf_partition(thirds, 3, Heuristic::kFirstFit);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.processors_used, 3);
  for (const Rational& load : loads_of(thirds, r)) EXPECT_EQ(load, Rational(1));
}

TEST(Partition, PaperSec1ExampleUnpartitionable) {
  // Three tasks of weight 2/3 on 2 processors: not partitionable (but
  // Pfair-feasible — see sim tests).
  const std::vector<UniTask> u(3, UniTask{2, 3});
  EXPECT_FALSE(edf_partition(u, 2, Heuristic::kFirstFit).feasible);
  EXPECT_FALSE(edf_partition(u, 2, Heuristic::kBestFit).feasible);
  EXPECT_FALSE(edf_partition(u, 2, Heuristic::kFirstFitDecreasing).feasible);
  EXPECT_TRUE(edf_partition(u, 3, Heuristic::kFirstFit).feasible);
}

TEST(Partition, AdversaryDefeatsEveryHeuristic) {
  // m+1 tasks of utilization (1+eps)/2 (Sec. 3): unpartitionable on m
  // processors regardless of heuristic.
  for (const int m : {2, 4, 8}) {
    const std::vector<UniTask> u = partition_adversary(m, 100);
    for (const Heuristic h :
         {Heuristic::kFirstFit, Heuristic::kBestFit, Heuristic::kWorstFit,
          Heuristic::kFirstFitDecreasing, Heuristic::kBestFitDecreasing}) {
      const UniPartitionResult r = edf_partition(u, m, h);
      EXPECT_FALSE(r.feasible) << heuristic_name(h) << " m=" << m;
      EXPECT_EQ(min_processors_uni(u, h, Acceptance::kEdfUtilization), m + 1)
          << heuristic_name(h);
    }
  }
}

TEST(Partition, AssignmentRespectsCapacity) {
  Rng rng(0xaa);
  for (int trial = 0; trial < 30; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    std::vector<UniTask> u;
    const int n = static_cast<int>(trial_rng.uniform_int(1, 25));
    for (int k = 0; k < n; ++k) {
      const std::int64_t p = trial_rng.uniform_int(1, 20);
      u.push_back({trial_rng.uniform_int(1, p), p});
    }
    for (const Heuristic h : {Heuristic::kFirstFit, Heuristic::kBestFit, Heuristic::kWorstFit,
                              Heuristic::kFirstFitDecreasing}) {
      const UniPartitionResult r = edf_partition(u, 64, h);
      ASSERT_TRUE(r.feasible);
      for (const int a : r.assignment) ASSERT_GE(a, 0);
      for (const Rational& load : loads_of(u, r)) EXPECT_LE(load, Rational(1)) << heuristic_name(h);
    }
  }
}

TEST(Partition, FfdNeverUsesMoreProcessorsThanTotalTimesTwoPlusOne) {
  // FFD's classical guarantee is much stronger; we check the crude
  // 2*OPT bound as a sanity property, with OPT >= ceil(total).
  Rng rng(0xbb);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    std::vector<UniTask> u;
    for (int k = 0; k < 30; ++k) {
      const std::int64_t p = trial_rng.uniform_int(2, 24);
      u.push_back({trial_rng.uniform_int(1, p), p});
    }
    Rational total(0);
    for (const UniTask& t : u) total += Rational(t.execution, t.period);
    const int used = edf_partition(u, 1 << 10, Heuristic::kFirstFitDecreasing).processors_used;
    EXPECT_LE(used, 2 * static_cast<int>(total.ceil()) + 1);
    EXPECT_GE(used, static_cast<int>(total.ceil()));
  }
}

TEST(Partition, BestFitPrefersFullerProcessor) {
  // 3/4 -> proc0; 1/2 -> proc1; a 1/4 task then goes to the fuller
  // proc0 under BF (minimal remaining capacity), to proc1 under WF.
  const std::vector<UniTask> seq = {{3, 4}, {1, 2}, {1, 4}};
  EXPECT_EQ(edf_partition(seq, 4, Heuristic::kBestFit).assignment[2], 0);
  EXPECT_EQ(edf_partition(seq, 4, Heuristic::kWorstFit).assignment[2], 1);
}

TEST(Partition, DecreasingVariantSortsButReportsInInputOrder) {
  const std::vector<UniTask> u = {{1, 10}, {9, 10}, {1, 2}};
  const UniPartitionResult r = edf_partition(u, 2, Heuristic::kFirstFitDecreasing);
  ASSERT_TRUE(r.feasible);
  // 9/10 first -> proc0; 1/2 -> proc1; 1/10 -> proc0.
  EXPECT_EQ(r.assignment[1], 0);
  EXPECT_EQ(r.assignment[2], 1);
  EXPECT_EQ(r.assignment[0], 0);
}

TEST(Bounds, WorstCaseAchievableUtilization) {
  EXPECT_DOUBLE_EQ(partitioning_worst_case_utilization(2), 1.5);
  EXPECT_DOUBLE_EQ(partitioning_worst_case_utilization(16), 8.5);
}

TEST(Bounds, LopezImprovesWithSmallerUmax) {
  // beta = 1 -> (m+1)/2; beta = 3 -> (3m+1)/4.
  EXPECT_DOUBLE_EQ(lopez_bound(4, 1.0), 2.5);
  EXPECT_DOUBLE_EQ(lopez_bound(4, 0.33), 13.0 / 4.0);
  EXPECT_GT(lopez_bound(8, 0.25), lopez_bound(8, 0.5));
  // As u_max -> 0, the bound approaches m.
  EXPECT_NEAR(lopez_bound(8, 0.001), 8.0, 0.02);
}

TEST(Bounds, SimpleBoundWeakerThanLopez) {
  for (const double umax : {0.5, 0.33, 0.2, 0.1}) {
    for (const int m : {2, 4, 8, 16}) {
      EXPECT_LE(simple_partition_bound(m, umax), lopez_bound(m, umax) + 1e-9)
          << "m=" << m << " umax=" << umax;
    }
  }
}

TEST(Bounds, TaskSetsUnderLopezBoundAlwaysPartition) {
  // Empirical check of the Lopez guarantee: random sets with u_i <=
  // u_max and total <= (beta*m+1)/(beta+1) always first-fit onto m
  // processors.
  Rng rng(0xcc);
  for (int trial = 0; trial < 50; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    const int m = static_cast<int>(trial_rng.uniform_int(2, 8));
    const double umax = 0.5;
    const double cap = lopez_bound(m, umax);
    std::vector<UniTask> u;
    Rational total(0);
    while (true) {
      const std::int64_t den = trial_rng.uniform_int(4, 40);
      const std::int64_t num = trial_rng.uniform_int(1, den / 2);  // <= 1/2
      const Rational w(num, den);
      if (Rational(static_cast<std::int64_t>(cap * 1000), 1000) < total + w) break;
      total += w;
      u.push_back({num, den});
    }
    if (u.empty()) continue;
    EXPECT_TRUE(edf_partition(u, m, Heuristic::kFirstFit).feasible)
        << "m=" << m << " total=" << total.to_string();
  }
}

}  // namespace
}  // namespace pfair
