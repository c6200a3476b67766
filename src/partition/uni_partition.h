// Partitioning over concrete task sets with per-processor uniprocessor
// schedulability tests (paper Secs. 1 and 3).
//
// Real partitioned systems differ by the *acceptance test* the one
// packer (heuristics.h) runs per processor: EDF accepts while the exact
// utilization stays <= 1; RM-FF accepts a task only if the processor's
// task set stays RM-schedulable — either by the Liu-Layland bound
// (cheap, pessimistic; yields the 41%-ish multiprocessor guarantees the
// paper cites from Oh & Baker) or by exact response-time analysis (the
// "variable-sized bin" flavour the paper notes makes the packing problem
// harder).  Each test keeps incremental per-processor state: the exact
// util::WeightSum for EDF, the count and sum for Liu-Layland, the member
// list for response-time analysis; best and worst fit compare the
// processors' double utilization sums.
#pragma once

#include <vector>

#include "partition/heuristics.h"
#include "uniproc/uni_task.h"

namespace pfair {

enum class Acceptance : std::uint8_t {
  kEdfUtilization,  ///< sum e/p <= 1 (exact for EDF)
  kRmLiuLayland,    ///< U <= n(2^{1/n} - 1) (sufficient for RM)
  kRmExact,         ///< response-time analysis (exact for RM)
};

[[nodiscard]] const char* acceptance_name(Acceptance a) noexcept;

struct UniPartitionResult {
  std::vector<int> assignment;  ///< per task (input order), -1 = unplaced
  int processors_used = 0;
  bool feasible = false;
};

/// Partitions `tasks` using heuristic `h` (first/best/worst fit in input
/// order, FFD/BFD in decreasing utilization) under acceptance test
/// `acc`, opening at most `max_processors` processors.
[[nodiscard]] UniPartitionResult partition_uni(const std::vector<UniTask>& tasks,
                                               int max_processors, Heuristic h, Acceptance acc);

/// Smallest processor count rendering `tasks` partitionable.
[[nodiscard]] int min_processors_uni(const std::vector<UniTask>& tasks, Heuristic h,
                                     Acceptance acc, int hard_cap = 1 << 12);

}  // namespace pfair
