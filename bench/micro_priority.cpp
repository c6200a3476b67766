// Ablation: cost of one priority comparison under each rule.
//
// PD2's selling point over PF is constant-time tie-breaking; this bench
// quantifies the gap (PF recurses over successor windows on ties) and
// shows PD2's two tie-breaks cost almost nothing over naive EPDF.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/priority.h"
#include "sim/ready_queue.h"
#include "util/rng.h"

namespace {

using namespace pfair;

std::vector<SubtaskRef> make_refs(std::size_t n, std::uint64_t seed, bool heavy_ties) {
  Rng rng(seed);
  std::vector<SubtaskRef> refs;
  refs.reserve(n);
  for (TaskId id = 0; id < n; ++id) {
    std::int64_t p, e;
    if (heavy_ties) {
      // Many heavy tasks with clashing deadlines: worst case for PF.
      p = rng.uniform_int(8, 12);
      e = rng.uniform_int((p + 1) / 2, p - 1);
    } else {
      p = rng.uniform_int(1, 64);
      e = rng.uniform_int(1, p);
    }
    refs.push_back(make_subtask_ref(id, e, p, rng.uniform_int(1, e), 0));
  }
  return refs;
}

template <bool (*Higher)(const SubtaskRef&, const SubtaskRef&)>
void bm_compare(benchmark::State& state, bool heavy_ties) {
  const auto refs = make_refs(256, 42, heavy_ties);
  std::size_t i = 0;
  std::size_t j = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Higher(refs[i], refs[j]));
    i = (i + 1) & 255;
    j = (j + 7) & 255;
  }
}

void BM_PD2_Compare(benchmark::State& s) { bm_compare<pd2_higher_priority>(s, false); }
void BM_PD_Compare(benchmark::State& s) { bm_compare<pd_higher_priority>(s, false); }
void BM_EPDF_Compare(benchmark::State& s) { bm_compare<epdf_higher_priority>(s, false); }
void BM_PF_Compare(benchmark::State& s) { bm_compare<pf_higher_priority>(s, false); }
void BM_PD2_Compare_HeavyTies(benchmark::State& s) { bm_compare<pd2_higher_priority>(s, true); }
void BM_PF_Compare_HeavyTies(benchmark::State& s) { bm_compare<pf_higher_priority>(s, true); }

BENCHMARK(BM_PD2_Compare);
BENCHMARK(BM_PD_Compare);
BENCHMARK(BM_EPDF_Compare);
BENCHMARK(BM_PF_Compare);
BENCHMARK(BM_PD2_Compare_HeavyTies);
BENCHMARK(BM_PF_Compare_HeavyTies);

// Packed-key comparison vs the legacy tie-break chain it replaces: the
// same ref population compared through SubtaskPriority with keyed refs
// (one 128-bit integer compare) and keyless ones (4-branch cascade).
// This is the per-sift cost the calendar queue and heap pay on the hot
// path.
void bm_priority_compare(benchmark::State& state, Algorithm alg, bool packed,
                         bool heavy_ties) {
  const Algorithm ref_alg = packed ? alg : Algorithm::kWRR;  // kWRR never packs
  Rng rng(42);
  std::vector<SubtaskRef> refs;
  for (TaskId id = 0; id < 256; ++id) {
    std::int64_t p, e;
    if (heavy_ties) {
      p = rng.uniform_int(8, 12);
      e = rng.uniform_int((p + 1) / 2, p - 1);
    } else {
      p = rng.uniform_int(1, 64);
      e = rng.uniform_int(1, p);
    }
    refs.push_back(make_subtask_ref(id, e, p, rng.uniform_int(1, e), 0, ref_alg));
  }
  const SubtaskPriority pri(alg);
  std::size_t i = 0;
  std::size_t j = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pri(refs[i], refs[j]));
    i = (i + 1) & 255;
    j = (j + 7) & 255;
  }
}

void BM_PD2_Compare_Packed(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD2, true, false);
}
void BM_PD2_Compare_Legacy(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD2, false, false);
}
void BM_PD2_Compare_Packed_HeavyTies(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD2, true, true);
}
void BM_PD2_Compare_Legacy_HeavyTies(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD2, false, true);
}
void BM_PD_Compare_Packed(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD, true, false);
}
void BM_PD_Compare_Legacy(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kPD, false, false);
}
void BM_EPDF_Compare_Packed(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kEPDF, true, false);
}
void BM_EPDF_Compare_Legacy(benchmark::State& s) {
  bm_priority_compare(s, Algorithm::kEPDF, false, false);
}

BENCHMARK(BM_PD2_Compare_Packed);
BENCHMARK(BM_PD2_Compare_Legacy);
BENCHMARK(BM_PD2_Compare_Packed_HeavyTies);
BENCHMARK(BM_PD2_Compare_Legacy_HeavyTies);
BENCHMARK(BM_PD_Compare_Packed);
BENCHMARK(BM_PD_Compare_Legacy);
BENCHMARK(BM_EPDF_Compare_Packed);
BENCHMARK(BM_EPDF_Compare_Legacy);

// Steady-state ready-queue churn at queue depth N: N resident tasks in
// the simulator's task-keyed ready queue.  A task leaving the queue is
// re-queued with the next ref of a prebuilt pool of 2N (deadlines spread
// over ~200 slots, as resident_refs draws them), retagged with its id
// and repacked the way the simulator packs a pending ref (PD2 keys for
// the packed rows, none for the legacy ones).
std::vector<SubtaskRef> resident_refs(std::size_t n, Algorithm alg) {
  Rng rng(7);
  std::vector<SubtaskRef> refs;
  for (TaskId id = 0; id < 2 * n; ++id) {
    const std::int64_t p = rng.uniform_int(2, 64);
    const std::int64_t e = rng.uniform_int(1, p);
    refs.push_back(make_subtask_ref(id, e, p, rng.uniform_int(1, e),
                                    rng.uniform_int(0, 128), alg));
  }
  return refs;
}

class Churn {
 public:
  Churn(std::size_t n, bool packed)
      : queue_(Algorithm::kPD2),
        key_alg_(packed ? Algorithm::kPD2 : Algorithm::kWRR),
        pool_(resident_refs(n, key_alg_)) {
    for (TaskId id = 0; id < n; ++id) requeue(id);
  }

  [[nodiscard]] ReadyQueue& queue() noexcept { return queue_; }

  /// Queues `id` with the pool's next ref.
  void requeue(TaskId id) {
    SubtaskRef& s = queue_.pending(id);
    s = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    s.task = id;
    pack_subtask_ref(s, key_alg_);
    queue_.push(id);
  }

 private:
  ReadyQueue queue_;
  Algorithm key_alg_;
  std::vector<SubtaskRef> pool_;
  std::size_t next_ = 0;
};

// One take of the top plus its re-queue per iteration.
void bm_heap_push_pop(benchmark::State& state, bool packed) {
  Churn churn(static_cast<std::size_t>(state.range(0)), packed);
  std::vector<TaskId> top;
  for (auto _ : state) {
    churn.queue().take_top(1, top);
    churn.requeue(top[0]);
    benchmark::DoNotOptimize(top.data());
  }
}

void BM_SubtaskHeap_PushPop_Packed(benchmark::State& s) { bm_heap_push_pop(s, true); }
void BM_SubtaskHeap_PushPop_Legacy(benchmark::State& s) { bm_heap_push_pop(s, false); }
BENCHMARK(BM_SubtaskHeap_PushPop_Packed)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(BM_SubtaskHeap_PushPop_Legacy)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Erase by task id at depth N (the deadline-miss / departure path): one
// erase of a rotating resident task plus its re-queue per iteration.
void bm_heap_erase(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Churn churn(n, true);
  TaskId victim = 0;
  for (auto _ : state) {
    churn.queue().erase(victim);
    churn.requeue(victim);
    victim = static_cast<TaskId>((victim + 1) % n);
  }
}

void BM_SubtaskHeap_Erase(benchmark::State& s) { bm_heap_erase(s); }
BENCHMARK(BM_SubtaskHeap_Erase)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// One slot's selection on M processors: take_top(M) over N resident
// tasks, then the M picks re-queued (so every iteration starts from the
// same steady state).  Args are (M, N); N = 5M is the task-to-processor
// ratio of the sim-pd2-16p benchmark workload.
void BM_SubtaskHeap_TakeTop(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Churn churn(static_cast<std::size_t>(state.range(1)), true);
  std::vector<TaskId> picks;
  for (auto _ : state) {
    churn.queue().take_top(m, picks);
    for (const TaskId id : picks) churn.requeue(id);
    benchmark::DoNotOptimize(picks.data());
  }
}
BENCHMARK(BM_SubtaskHeap_TakeTop)->Args({4, 20})->Args({16, 80});

void BM_MakeSubtaskRef(benchmark::State& state) {
  // Cost of computing (r, d, b, D) for one subtask — the per-schedule
  // state update PD2 performs for each selected task.
  Rng rng(7);
  struct Params {
    std::int64_t e, p, idx;
  };
  std::vector<Params> params;
  for (int k = 0; k < 256; ++k) {
    const std::int64_t p = rng.uniform_int(2, 1000);
    const std::int64_t e = rng.uniform_int(1, p);
    params.push_back({e, p, rng.uniform_int(1, 3 * e)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Params& pr = params[i];
    benchmark::DoNotOptimize(make_subtask_ref(0, pr.e, pr.p, pr.idx, 0));
    i = (i + 1) & 255;
  }
}
BENCHMARK(BM_MakeSubtaskRef);

}  // namespace
