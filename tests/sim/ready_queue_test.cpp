// Randomized differential test of the task-keyed calendar ready queue
// (sim/ready_queue.h): against a reference multiset it must agree on
// every top(), min_deadline() and take_top(M) while being driven through
// the regimes its ring machinery distinguishes — in-window pushes,
// below-window rewinds, far-future side-heap spills, window growth,
// erase by task id and the re-queueing of a task id with a fresh ref —
// with keyed, keyless and mixed refs, and with PD2's b-bit flip.
#include "sim/ready_queue.h"

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

/// Which refs carry a packed key: all, none (packed for kWRR, which
/// never packs, so every comparison takes the legacy chain), or a coin
/// flip per ref, which moves the queue between its key-only and
/// ref-reading comparisons as keyless refs come and go.
enum class Keys : std::uint8_t { kAll, kNone, kMixed };

/// The reference: queued (task, ref) pairs, ordered by a linear
/// comparator scan.
struct Reference {
  SubtaskPriority pri;
  std::vector<std::pair<TaskId, SubtaskRef>> items;

  [[nodiscard]] std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < items.size(); ++i) {
      if (pri(items[i].second, items[best].second)) best = i;
    }
    return best;
  }
  /// Removes and returns the first `m` task ids in comparator order.
  std::vector<TaskId> take(std::size_t m) {
    std::vector<TaskId> out;
    while (out.size() < m && !items.empty()) {
      const std::size_t k = min_index();
      out.push_back(items[k].first);
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(k));
    }
    return out;
  }
};

void drive(Algorithm alg, Keys keys, std::uint64_t seed) {
  ReadyQueue q(alg);
  Reference reference{SubtaskPriority(alg), {}};
  Rng rng(seed);
  std::vector<TaskId> idle;  // task ids not queued, for re-queueing
  std::vector<TaskId> got;

  Time base = 100;
  TaskId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    // Alternate fill and drain phases of 500 steps, so the queue swings
    // between empty (ring re-anchoring) and ~100 entries (growth, side
    // heap, multi-bucket selections).
    const bool filling = (step / 500) % 2 == 0;
    const std::int64_t op = rng.uniform_int(0, 99);
    const std::int64_t push_below = filling ? 70 : 35;
    const std::int64_t rest = 100 - push_below;
    if (op < push_below || reference.items.empty()) {
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
      // A task is queued at most once, so task ids keep the comparator
      // a strict total order and the reference order is unambiguous.
      TaskId id = next_id;
      if (!idle.empty() && rng.uniform_int(0, 2) == 0) {
        const std::size_t k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(idle.size()) - 1));
        id = idle[k];
        idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ++next_id;
      }
      const bool keyed = keys == Keys::kAll || (keys == Keys::kMixed && rng.uniform_int(0, 1) == 0);
      const SubtaskRef s = ref_with_deadline(rng, id, d, keyed ? alg : Algorithm::kWRR);
      q.pending(id) = s;
      q.push(id);
      reference.items.emplace_back(id, s);
    } else if (op < push_below + rest * 4 / 10) {
      const TaskId want = reference.items[reference.min_index()].first;
      ASSERT_EQ(q.top(), want) << "step " << step;
      const Time d = q.ref(want).deadline;
      q.erase(want);
      reference.take(1);
      idle.push_back(want);
      base = std::max(base, d);  // queues drain roughly in order
    } else if (op < push_below + rest * 7 / 10) {
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reference.items.size()) - 1));
      const TaskId id = reference.items[k].first;
      q.erase(id);
      reference.items.erase(reference.items.begin() + static_cast<std::ptrdiff_t>(k));
      idle.push_back(id);
    } else {
      // One slot's selection: the first m of the comparator order, in
      // that order, whether m splits a bucket, spans several, reaches
      // into the side heap or exceeds the queue.
      const auto m = static_cast<std::size_t>(rng.uniform_int(0, 6));
      q.take_top(m, got);
      const std::vector<TaskId> want = reference.take(m);
      ASSERT_EQ(got, want) << "step " << step << ", m=" << m;
      for (const TaskId id : got) {
        ASSERT_FALSE(q.contains(id));
        base = std::max(base, q.ref(id).deadline);
        idle.push_back(id);
      }
    }
    ASSERT_EQ(q.size(), reference.items.size());
    if (step % 256 == 0) {
      ASSERT_TRUE(q.validate()) << "step " << step;
    }
    if (!reference.items.empty()) {
      const std::size_t want = reference.min_index();
      ASSERT_EQ(q.top(), reference.items[want].first) << "step " << step;
      ASSERT_EQ(q.min_deadline(), reference.items[want].second.deadline) << "step " << step;
    }
  }
  EXPECT_TRUE(q.validate());
  q.take_top(reference.items.size() + 1, got);
  EXPECT_EQ(got, reference.take(reference.items.size()));
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.validate());
}

TEST(SubtaskHeap, RandomisedAgainstReference_PD2_Packed) { drive(Algorithm::kPD2, Keys::kAll, 1); }
TEST(SubtaskHeap, RandomisedAgainstReference_PD2_Legacy) { drive(Algorithm::kPD2, Keys::kNone, 2); }
TEST(SubtaskHeap, RandomisedAgainstReference_PD) { drive(Algorithm::kPD, Keys::kAll, 3); }
TEST(SubtaskHeap, RandomisedAgainstReference_EPDF) { drive(Algorithm::kEPDF, Keys::kAll, 4); }
TEST(SubtaskHeap, RandomisedAgainstReference_PF) { drive(Algorithm::kPF, Keys::kAll, 5); }
TEST(SubtaskHeap, RandomisedAgainstReference_MixedKeys) {
  drive(Algorithm::kPD2, Keys::kMixed, 6);
  drive(Algorithm::kPD, Keys::kMixed, 7);
  drive(Algorithm::kEPDF, Keys::kMixed, 8);
}

// PD2's test-only fault injection inverts the b-bit tie-break at run
// time; the queue must follow the flipped comparator (the reference
// does, through SubtaskPriority) although its keys are packed for the
// unflipped rule.
TEST(SubtaskHeap, RandomisedAgainstReference_PD2_BBitFlip) {
  const ScopedPd2BBitFlip flip;
  drive(Algorithm::kPD2, Keys::kAll, 9);
  drive(Algorithm::kPD2, Keys::kMixed, 10);
}

// take_top(M) on one slot's worth of ties: every entry shares a few
// deadlines, so selection splits a bucket of equal-deadline entries
// whose order only the tie-breaks decide.
TEST(SubtaskHeap, TakeTopSplitsTieBucketsInComparatorOrder) {
  for (const bool flipped : {false, true}) {
    set_pd2_b_bit_flip_for_test(flipped);
    for (const Algorithm alg : {Algorithm::kPD2, Algorithm::kPD, Algorithm::kEPDF}) {
      Rng rng(11);
      for (const std::size_t m : {1u, 4u, 16u}) {
        ReadyQueue q(alg);
        Reference reference{SubtaskPriority(alg), {}};
        for (TaskId id = 0; id < 40; ++id) {
          const SubtaskRef s = ref_with_deadline(rng, id, 50 + rng.uniform_int(0, 2), alg);
          q.pending(id) = s;
          q.push(id);
          reference.items.emplace_back(id, s);
        }
        std::vector<TaskId> got;
        while (!q.empty()) {
          q.take_top(m, got);
          EXPECT_EQ(got, reference.take(m)) << algorithm_name(alg) << " m=" << m
                                            << " flipped=" << flipped;
          EXPECT_TRUE(q.validate());
        }
      }
    }
  }
  set_pd2_b_bit_flip_for_test(false);
}

// Draining the queue resets its ring: refilling the same task ids at
// deadlines far from the old window re-anchors the ring there.
TEST(SubtaskHeap, ClearResetsRingState) {
  ReadyQueue q(Algorithm::kPD2);
  Rng rng(9);
  std::vector<TaskId> got;
  for (int round = 0; round < 3; ++round) {
    const Time origin = 1 + round * 100000;
    for (TaskId id = 0; id < 50; ++id) {
      q.pending(id) = ref_with_deadline(rng, id, origin + rng.uniform_int(0, 500), Algorithm::kPD2);
      q.push(id);
    }
    ASSERT_TRUE(q.validate());
    EXPECT_GE(q.min_deadline(), origin);
    q.take_top(50, got);
    EXPECT_EQ(got.size(), 50u);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.validate());
  }
}

}  // namespace
}  // namespace pfair
