// Dynamic task admission rules (paper Sec. 2, "Dynamic task systems",
// after Srinivasan & Anderson 2002).
//
// A task may JOIN a running system at any time as long as Eq. (2)
// continues to hold (sum of weights <= M; PfairSimulator::join and the
// pfaird gate test it on util::WeightSum).  LEAVING is restricted so a
// task cannot bank negative lag, leave, re-join, and effectively run
// above its rate:
//   - a LIGHT task may leave at or after d(T_i) + b(T_i), where T_i is
//     its last-scheduled subtask;
//   - a HEAVY task may leave only strictly after its next group
//     deadline;
//   - a task that has never been allocated a quantum may leave anytime.
#pragma once

#include "core/task.h"
#include "core/windows.h"
#include "util/types.h"

namespace pfair {

/// Earliest time a task with weight e/p whose last-scheduled subtask was
/// index `i` (with accumulated window offset `offset`) may leave the
/// system.  `i == 0` means never scheduled.
[[nodiscard]] inline Time earliest_leave_time(std::int64_t e, std::int64_t p, SubtaskIndex i,
                                              Time offset) noexcept {
  if (i == 0) return 0;
  if (is_heavy(e, p)) return offset + group_deadline(e, p, i) + 1;
  return offset + subtask_deadline(e, p, i) + b_bit(e, p, i);
}

}  // namespace pfair
