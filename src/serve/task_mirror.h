// Flat mirror of the committed task set — the data structure behind
// the admission gate's Tier-0 arithmetic.
//
// Task ids are dense: the simulator assigns them in order and never
// reuses one, and the daemon counts them up from 0 for the static
// kinds.  So the mirror is one std::vector<UniTask> indexed by id, with
// period 0 marking an absent id.  find() is a bounds check plus a
// period test, and an id that was never assigned reads as absent.
//
// The canonical (period, execution) -> count class map is the only
// index of the committed multiset.  Next to it, every mutation keeps
// cheap aggregates: ΣU as a util::WeightSum (exact integers, one table
// lookup and one multiply-add per update, util/weight_sum.h), the
// committed count, and a 128-bit *multiset fingerprint* — two
// independent commutative hash sums over the committed (execution,
// period) pairs.  The fingerprint
// is the warm-start rule of the incremental Tier-2 layer: a single-task
// join/leave/reweight moves it by one O(1) add/subtract, never a rehash
// of the set, so adjacent request states key into the exact verdict
// memo (admission.h) without touching the n committed tasks.
//
// u_max (GFB's and Lopez's order statistic) scans the d classes, O(d),
// comparing weights through 128-bit cross products so periods near
// 9e15 cannot wrap the comparison.  The canonical workload expansion is
// O(n + d), paid only on the Tier-1/2 paths.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "uniproc/uni_task.h"
#include "util/types.h"
#include "util/weight_sum.h"

namespace pfair::serve {

/// Order-independent 128-bit hash of the committed task multiset.
/// Equal multisets have equal fingerprints by construction; distinct
/// multisets collide with probability ~2^-128 per pair (two
/// independent splitmix-style mixers summed mod 2^64).
struct MirrorFingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] bool operator==(const MirrorFingerprint& o) const noexcept {
    return lo == o.lo && hi == o.hi;
  }
};

class TaskMirror {
 public:
  /// O(1) lookup; nullptr when absent or never assigned.
  [[nodiscard]] const UniTask* find(TaskId id) const noexcept;

  /// Inserts or replaces `id` (an assigned id, so the table grows to at
  /// most one past the largest id); all cached aggregates follow.  O(1)
  /// amortised + O(log d) class bookkeeping over the d distinct classes.
  void upsert(TaskId id, const UniTask& t);

  /// Removes `id`; false when absent.
  bool erase(TaskId id);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const WeightSum& total() const noexcept { return total_; }

  /// ΣU of committed ∪ {extra} − {exclude}, as the Tier-0 tests compare
  /// it (`extra` may be invalid-by-sentinel, and kNoTask or unknown ids
  /// exclude nothing).  O(log d) while the lcm of the periods fits int64,
  /// plus one O(d) pass after the live periods change when a candidate
  /// would pass it (WeightSum::with).
  [[nodiscard]] WeightSum::View total_with(const UniTask& extra, TaskId exclude) const;

  /// Committed count with `exclude` dropped.  O(1).
  [[nodiscard]] std::size_t count_excluding(TaskId exclude) const;

  /// The task of largest utilization once `exclude` is dropped and
  /// `candidate` joins, as its (execution, period).  O(d).
  [[nodiscard]] UniTask u_max_with(const UniTask& candidate, TaskId exclude) const;

  /// Fingerprint of committed ∪ {extra} − {exclude}: the O(1)
  /// single-task delta rule.  `extra` may be invalid-by-sentinel
  /// (period 0) to fingerprint the committed set itself.
  [[nodiscard]] MirrorFingerprint fingerprint_with(const UniTask& extra,
                                                   TaskId exclude) const;

  /// The same set expanded in canonical (period, execution) order —
  /// the workload vector every Tier-1/2 test judges, deterministic in
  /// the multiset alone (never in arrival order).  O(n + d).
  [[nodiscard]] std::vector<UniTask> workload_with(const UniTask& extra,
                                                   TaskId exclude) const;

  /// The same set in task-id order with `extra` last — the order in
  /// which a static scheduler admitted it.  O(ids).
  [[nodiscard]] std::vector<UniTask> by_id_with(const UniTask& extra, TaskId exclude) const;

 private:
  void add_aggregates(const UniTask& t);
  void remove_aggregates(const UniTask& t);

  std::vector<UniTask> tasks_;  ///< indexed by id; period 0 = absent
  std::size_t size_ = 0;
  WeightSum total_;
  std::uint64_t fp_lo_ = 0;
  std::uint64_t fp_hi_ = 0;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> classes_;
};

/// The two independent per-task mixers the fingerprint sums (exposed
/// for the O(1) with-candidate deltas in fingerprint_with and tests).
[[nodiscard]] std::uint64_t mirror_mix_lo(std::int64_t execution,
                                          std::int64_t period) noexcept;
[[nodiscard]] std::uint64_t mirror_mix_hi(std::int64_t execution,
                                          std::int64_t period) noexcept;

}  // namespace pfair::serve
