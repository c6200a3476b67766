// Ready-queue microbenchmarks: binary-heap operations at the queue
// sizes the Fig.-2 experiments reach, and the PD2 simulator's
// task-keyed ready queue.  Both schedulers in the paper use binary
// heaps; this isolates the data-structure contribution to the measured
// scheduling overhead.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/priority.h"
#include "sim/ready_queue.h"
#include "util/binary_heap.h"
#include "util/rng.h"

namespace {

using namespace pfair;

void BM_HeapPushPop_Int(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  BinaryHeap<std::int64_t, std::less<std::int64_t>> heap;
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) heap.push(rng.uniform_int(0, 1 << 30));
  for (auto _ : state) {
    heap.push(rng.uniform_int(0, 1 << 30));
    benchmark::DoNotOptimize(heap.pop());
  }
}
BENCHMARK(BM_HeapPushPop_Int)->Arg(16)->Arg(100)->Arg(1000)->Arg(10000);

void BM_HeapPushPop_SubtaskPD2(benchmark::State& state) {
  // The actual PD2 ready queue (task-keyed calendar) and comparator: n
  // resident tasks; each iteration takes the top task and queues a fresh
  // random subtask of it.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ReadyQueue queue(Algorithm::kPD2);
  Rng rng(2);
  const auto random_ref = [&rng](TaskId id) {
    const std::int64_t p = rng.uniform_int(2, 512);
    const std::int64_t e = rng.uniform_int(1, p);
    return make_subtask_ref(id, e, p, rng.uniform_int(1, 2 * e), 0);
  };
  for (TaskId id = 0; id < n; ++id) {
    queue.pending(id) = random_ref(id);
    queue.push(id);
  }
  std::vector<TaskId> top;
  for (auto _ : state) {
    queue.take_top(1, top);
    queue.pending(top[0]) = random_ref(top[0]);
    queue.push(top[0]);
    benchmark::DoNotOptimize(top.data());
  }
}
BENCHMARK(BM_HeapPushPop_SubtaskPD2)->Arg(16)->Arg(100)->Arg(1000);

}  // namespace
