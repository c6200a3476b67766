// Randomized differential test of the calendar ready queue (the
// BinaryHeap<SubtaskRef, SubtaskPriority> specialization): against a
// reference multiset it must agree on every top() and pop() while being
// driven through the regimes its ring machinery distinguishes —
// in-window pushes, below-window rewinds, far-future side-heap spills,
// window growth, erase-by-handle, and in-place updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/priority.h"
#include "util/rng.h"

namespace pfair {
namespace {

SubtaskRef ref_with_deadline(Rng& rng, TaskId id, Time deadline, Algorithm alg) {
  // A synthetic ref: ordering fields are what matter, so draw them
  // directly and pack, exactly as the simulator's in-place enqueue does.
  SubtaskRef s;
  s.task = id;
  s.e = rng.uniform_int(1, 8);
  s.p = s.e + rng.uniform_int(0, 8);
  s.release = deadline - rng.uniform_int(1, 4);
  s.deadline = deadline;
  s.b = static_cast<int>(rng.uniform_int(0, 1));
  s.group_dl = s.b == 1 ? deadline + rng.uniform_int(0, 3) : 0;
  pack_subtask_ref(s, alg);
  return s;
}

/// Keyless refs (packed for kWRR, which never packs) send every
/// comparison through the legacy chain.
void drive(Algorithm alg, bool keyed, std::uint64_t seed) {
  const Algorithm key_alg = keyed ? alg : Algorithm::kWRR;
  SubtaskPriority pri(alg);
  BinaryHeap<SubtaskRef, SubtaskPriority> heap(pri);
  Rng rng(seed);
  // Reference store: handle -> ref, min found by linear comparator scan.
  std::vector<std::pair<HeapHandle, SubtaskRef>> reference;
  const auto reference_min = [&] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i) {
      if (pri(reference[i].second, reference[best].second)) best = i;
    }
    return best;
  };

  Time base = 100;
  TaskId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 45 || reference.empty()) {
      Time d;
      const std::int64_t shape = rng.uniform_int(0, 19);
      if (shape < 12) {
        d = base + rng.uniform_int(0, 60);  // in-window
      } else if (shape < 15) {
        d = std::max<Time>(1, base - rng.uniform_int(1, 40));  // rewind
      } else if (shape < 18) {
        d = base + rng.uniform_int(200, 600);  // forces growth / side heap
      } else {
        d = base + rng.uniform_int(2000, 4000);  // deep side-heap spill
      }
      // Unique task ids keep the comparator a strict total order, so the
      // reference min is unambiguous.
      const SubtaskRef s = ref_with_deadline(rng, next_id++, d, key_alg);
      const HeapHandle h = heap.push(s);
      reference.emplace_back(h, s);
    } else if (op < 75) {
      const std::size_t want = reference_min();
      ASSERT_EQ(heap.top_handle(), reference[want].first) << "step " << step;
      const SubtaskRef got = heap.pop();
      ASSERT_EQ(got.task, reference[want].second.task);
      ASSERT_EQ(got.deadline, reference[want].second.deadline);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(want));
      base = std::max(base, got.deadline);  // queues drain roughly in order
    } else if (op < 90) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reference.size()) - 1));
      heap.erase(reference[k].first);
      reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      // In-place key mutation + update(), the reweight path.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reference.size()) - 1));
      const HeapHandle h = reference[k].first;
      SubtaskRef& s = heap.get_mutable(h);
      s.deadline = base + rng.uniform_int(0, 80);
      s.b = static_cast<int>(rng.uniform_int(0, 1));
      s.group_dl = s.b == 1 ? s.deadline + rng.uniform_int(0, 3) : 0;
      pack_subtask_ref(s, key_alg);
      heap.update(h);
      reference[k].second = s;
    }
    ASSERT_EQ(heap.size(), reference.size());
    if (step % 256 == 0) {
      ASSERT_TRUE(heap.validate()) << "step " << step;
    }
    if (!reference.empty()) {
      const std::size_t want = reference_min();
      ASSERT_EQ(heap.top_handle(), reference[want].first) << "step " << step;
    }
  }
  EXPECT_TRUE(heap.validate());
  while (!heap.empty()) {
    const std::size_t want = reference_min();
    ASSERT_EQ(heap.pop().task, reference[want].second.task);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(want));
  }
}

TEST(SubtaskHeap, RandomisedAgainstReference_PD2_Packed) { drive(Algorithm::kPD2, true, 1); }
TEST(SubtaskHeap, RandomisedAgainstReference_PD2_Legacy) { drive(Algorithm::kPD2, false, 2); }
TEST(SubtaskHeap, RandomisedAgainstReference_PD) { drive(Algorithm::kPD, true, 3); }
TEST(SubtaskHeap, RandomisedAgainstReference_EPDF) { drive(Algorithm::kEPDF, true, 4); }
TEST(SubtaskHeap, RandomisedAgainstReference_PF) { drive(Algorithm::kPF, true, 5); }

TEST(SubtaskHeap, ClearResetsRingState) {
  SubtaskPriority pri(Algorithm::kPD2);
  BinaryHeap<SubtaskRef, SubtaskPriority> heap(pri);
  Rng rng(9);
  for (int round = 0; round < 3; ++round) {
    for (TaskId id = 0; id < 50; ++id)
      heap.push(ref_with_deadline(rng, id, 1 + rng.uniform_int(0, 500), Algorithm::kPD2));
    ASSERT_TRUE(heap.validate());
    heap.clear();
    EXPECT_TRUE(heap.empty());
    EXPECT_TRUE(heap.validate());
  }
}

}  // namespace
}  // namespace pfair
