// Cost of the one bin packer (partition/heuristics.h) at the task
// counts the partitioning experiments use.  Relevant to the paper's
// point that FF/BF are cheap enough for online admission while
// FFD-style re-sorts are not free.
//
// BM_Partition times partition_uni — first, best and worst fit in input
// order and first fit in decreasing utilization — under the EDF
// utilization test (an exact Rational sum per processor) and under RM
// response-time analysis (the member list per processor), at n = 50,
// 250 and 1000 tasks with periods 3-30.  BM_EdfFf times the Eq.-(3)
// EDF-FF packing at the Fig.-3 set sizes (50, 100, 250 and 500 tasks
// at mean utilization 1/10, paper costs).  The procs counter reports
// the packing's processor count.
#include <benchmark/benchmark.h>

#include "overhead/inflation.h"
#include "partition/uni_partition.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace pfair;

std::vector<UniTask> random_tasks(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<UniTask> tasks;
  tasks.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t p = rng.uniform_int(3, 30);
    tasks.push_back({rng.uniform_int(1, p), p});
  }
  return tasks;
}

void bm_partition(benchmark::State& state, Heuristic h, Acceptance acc) {
  const auto tasks = random_tasks(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) benchmark::DoNotOptimize(partition_uni(tasks, 1 << 12, h, acc));
  state.counters["procs"] =
      static_cast<double>(partition_uni(tasks, 1 << 12, h, acc).processors_used);
}

BENCHMARK_CAPTURE(bm_partition, FF_EDF, Heuristic::kFirstFit, Acceptance::kEdfUtilization)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, BF_EDF, Heuristic::kBestFit, Acceptance::kEdfUtilization)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, WF_EDF, Heuristic::kWorstFit, Acceptance::kEdfUtilization)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, FFD_EDF, Heuristic::kFirstFitDecreasing,
                  Acceptance::kEdfUtilization)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, FF_RMexact, Heuristic::kFirstFit, Acceptance::kRmExact)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, BF_RMexact, Heuristic::kBestFit, Acceptance::kRmExact)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, WF_RMexact, Heuristic::kWorstFit, Acceptance::kRmExact)
    ->Arg(50)->Arg(250)->Arg(1000);
BENCHMARK_CAPTURE(bm_partition, FFD_RMexact, Heuristic::kFirstFitDecreasing,
                  Acceptance::kRmExact)
    ->Arg(50)->Arg(250)->Arg(1000);

void BM_EdfFf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  OhWorkloadConfig cfg;
  cfg.n_tasks = n;
  cfg.total_utilization = static_cast<double>(n) / 10.0;
  Rng rng(7);
  const std::vector<OhTask> tasks = generate_oh_tasks(cfg, rng);
  const OverheadParams params;
  for (auto _ : state) benchmark::DoNotOptimize(edf_ff_partition(tasks, params));
  state.counters["procs"] = static_cast<double>(edf_ff_partition(tasks, params).processors);
}

BENCHMARK(BM_EdfFf)->Arg(50)->Arg(100)->Arg(250)->Arg(500);

}  // namespace
