// Pfair subtask window algebra (paper Sec. 2).
//
// A periodic task T with integer execution cost e and integer period p
// (weight wt(T) = e/p, 0 < e <= p) is divided into quantum-length
// subtasks T_1, T_2, ...  Subtask T_i must execute inside its window
// [r(T_i), d(T_i)) or the Pfair lag bound (-1, 1) is violated:
//
//   r(T_i) = floor((i-1) / wt(T)) = floor((i-1) * p / e)
//   d(T_i) = ceil(i / wt(T))      = ceil(i * p / e)
//
// All functions here are pure integer arithmetic on (e, p, i); absolute
// times for later jobs / IS offsets are obtained by shifting.  Products
// such as i*p are formed exactly (in 128 bits once they pass int64), so
// every closed form holds for any i whose result fits a Time — pfaird
// accepts periods up to 9e15, where i*p passes 2^63 after ~1000
// subtasks.
#pragma once

#include "util/math.h"
#include "util/types.h"

namespace pfair {

/// Pseudo-release of subtask i (1-based) of a task with weight e/p.
[[nodiscard]] constexpr Time subtask_release(std::int64_t e, std::int64_t p,
                                             SubtaskIndex i) noexcept {
  assert(e > 0 && e <= p && i >= 1);
  return mul_floor_div(i - 1, p, e);
}

/// Pseudo-deadline of subtask i: the subtask must be scheduled in a slot
/// strictly before this time.
[[nodiscard]] constexpr Time subtask_deadline(std::int64_t e, std::int64_t p,
                                              SubtaskIndex i) noexcept {
  assert(e > 0 && e <= p && i >= 1);
  return mul_ceil_div(i, p, e);
}

/// Window length |w(T_i)| = d(T_i) - r(T_i).
[[nodiscard]] constexpr Time window_length(std::int64_t e, std::int64_t p,
                                           SubtaskIndex i) noexcept {
  return subtask_deadline(e, p, i) - subtask_release(e, p, i);
}

/// PD2 b-bit: 1 iff w(T_i) overlaps w(T_{i+1}), i.e. r(T_{i+1}) = d(T_i)-1,
/// which holds exactly when i*p is not a multiple of e.
[[nodiscard]] constexpr int b_bit(std::int64_t e, std::int64_t p, SubtaskIndex i) noexcept {
  assert(e > 0 && e <= p && i >= 1);
  return mul_mod(i, p, e) != 0 ? 1 : 0;
}

/// True iff weight e/p is "heavy" (wt >= 1/2).  Heavy tasks are the only
/// ones with length-2 windows, and the only ones with nonzero group
/// deadlines.
[[nodiscard]] constexpr bool is_heavy(std::int64_t e, std::int64_t p) noexcept {
  return 2 * e >= p;
}

/// PD2 group deadline of subtask i (paper Sec. 2): the earliest time by
/// which a cascade of forced length-2-window allocations starting at T_i
/// must end.  Closed form for a heavy task of weight e/p < 1:
///
///   D(T_i) = ceil( ceil(d(T_i) * (p-e) / p) * p / (p-e) )
///
/// By convention D = 0 for light tasks (they have no length-2 windows)
/// and for weight-1 tasks (every slot is a window; cascades never end,
/// but such a task is always scheduled, so the tie-break is moot — we
/// return a value larger than any deadline in the first job instead).
///
/// Windows repeat every job (D(T_{i+e}) = D(T_i) + p), so the closed form
/// runs on the job-relative index (i-1) mod e + 1 and adds the job offset
/// floor((i-1)/e) * p.  Then d <= p and k <= p - e, and each product is
/// at most p^2.
[[nodiscard]] constexpr Time group_deadline(std::int64_t e, std::int64_t p,
                                            SubtaskIndex i) noexcept {
  assert(e > 0 && e <= p && i >= 1);
  if (!is_heavy(e, p)) return 0;
  if (e == p) return subtask_deadline(e, p, i) + p;  // weight 1: see doc block
  const SubtaskIndex job = i > e ? (i - 1) / e : 0;  // the kernel passes i <= e
  const std::int64_t d = subtask_deadline(e, p, i - job * e);
  const std::int64_t k = mul_ceil_div(d, p - e, p);
  return checked_mul(job, p) + mul_ceil_div(k, p, p - e);
}

/// Group deadline computed directly from the paper's definition (earliest
/// t >= d(T_i) such that (t = d(T_k) && b(T_k) = 0) or (t + 1 = d(T_k) &&
/// |w(T_k)| = 3) for some k >= i).  O(p) scan; used as the test oracle
/// for the closed form above.
[[nodiscard]] Time group_deadline_by_definition(std::int64_t e, std::int64_t p, SubtaskIndex i);

/// Number of subtasks of a job: job k (1-based) of T consists of subtasks
/// (k-1)*e + 1 ... k*e, and its windows satisfy
/// r(T_{i+e}) = r(T_i) + p,  d(T_{i+e}) = d(T_i) + p.
[[nodiscard]] constexpr SubtaskIndex job_first_subtask(std::int64_t e, std::int64_t k) noexcept {
  return checked_mul(k - 1, e) + 1;
}

/// Incremental generator of consecutive subtask windows.
///
/// The closed forms above cost one 64-bit division each, and the
/// simulator needs release, deadline, b-bit and job position for every
/// subtask it enqueues — on the hot path that was ~6 divisions per
/// quantum.  The floor sequence r(T_{i+1}) = floor(i*p/e) instead
/// advances by the constant quotient p/e plus a remainder carry, so a
/// cursor walking i -> i+1 needs only additions and one compare:
///
///   rel_next' = rel_next + p/e + [rem_next + p%e >= e]
///   rem_next' = (rem_next + p%e) mod e        (single conditional subtract)
///
/// and the other quantities are derived:
///
///   d(T_i) = ceil(i*p/e) = rel_next + [rem_next != 0]
///   b(T_i) = [i*p mod e != 0] = [rem_next != 0]
///
/// reset() re-derives the state from the closed forms (divisions, but
/// only on task join / reweight); advance() must be called exactly once
/// per subtask-index increment.  All values are job-relative (offset 0);
/// callers add the task's absolute offset.
struct WindowCursor {
  std::int64_t e = 1;
  std::int64_t p = 1;
  SubtaskIndex index = 1;      ///< the subtask this cursor describes
  Time rel = 0;                ///< subtask_release(e, p, index)
  Time rel_next = 0;           ///< subtask_release(e, p, index + 1) = floor(index*p/e)
  std::int64_t rem_next = 0;   ///< (index * p) mod e
  std::int64_t idx_in_job = 1; ///< position within the job: ((index-1) mod e) + 1
  Time job_rel = 0;            ///< release of the enclosing job: ((index-1)/e) * p
  std::int64_t p_div_e = 1;    ///< floor(p / e), constant per (e, p)
  std::int64_t p_mod_e = 0;    ///< p mod e, constant per (e, p)

  constexpr void reset(std::int64_t e_in, std::int64_t p_in, SubtaskIndex i) noexcept {
    assert(e_in > 0 && e_in <= p_in && i >= 1);
    e = e_in;
    p = p_in;
    index = i;
    p_div_e = p / e;
    p_mod_e = p % e;
    rel = subtask_release(e, p, i);
    rel_next = subtask_release(e, p, i + 1);
    rem_next = mul_mod(i, p, e);
    idx_in_job = (i - 1) % e + 1;
    job_rel = (i - 1) / e * p;
  }

  constexpr void advance() noexcept {
    ++index;
    rel = rel_next;
    rel_next += p_div_e;
    rem_next += p_mod_e;
    if (rem_next >= e) {
      ++rel_next;
      rem_next -= e;
    }
    if (idx_in_job == e) {
      idx_in_job = 1;
      job_rel += p;
    } else {
      ++idx_in_job;
    }
  }

  /// b_bit(e, p, index) without the modulo.
  [[nodiscard]] constexpr int b() const noexcept { return rem_next != 0 ? 1 : 0; }

  /// subtask_deadline(e, p, index) without the division.
  [[nodiscard]] constexpr Time deadline() const noexcept {
    return rel_next + (rem_next != 0 ? 1 : 0);
  }

  /// True iff this subtask is the last of its job (index mod e == 0).
  [[nodiscard]] constexpr bool last_of_job() const noexcept { return idx_in_job == e; }
};

}  // namespace pfair
