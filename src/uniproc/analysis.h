// Uniprocessor schedulability analysis (paper Secs. 1 and 3).
#pragma once

#include <vector>

#include "uniproc/uni_task.h"
#include "util/rational.h"

namespace pfair {

/// EDF exact test for implicit-deadline periodic tasks: U <= 1
/// [Liu & Layland 73].  Uses exact integer arithmetic (no double
/// round-off at the boundary).
[[nodiscard]] bool edf_schedulable(const std::vector<UniTask>& tasks);

/// Liu–Layland RM utilization bound n(2^{1/n} - 1); ~0.693 as n -> inf.
[[nodiscard]] double rm_utilization_bound(std::size_t n);

/// Sufficient RM test: U <= n(2^{1/n} - 1).
[[nodiscard]] bool rm_schedulable_ll(const std::vector<UniTask>& tasks);

/// Exact RM test via response-time analysis [Lehoczky, Sha & Ding 89 /
/// Joseph & Pandya]: iterate R = e_i + sum_{j in hp(i)} ceil(R/p_j) e_j
/// to a fixed point and compare against the deadline.
[[nodiscard]] bool rm_schedulable_exact(const std::vector<UniTask>& tasks);

/// rm_schedulable_exact(tasks + {extra}) for an RM-schedulable `tasks`:
/// `extra` joins last, so it ranks below every task of its period, and
/// only it and the longer-period tasks it preempts are analysed (the
/// incremental test of a partitioned processor that accepts one task).
[[nodiscard]] bool rm_schedulable_with(const std::vector<UniTask>& tasks, const UniTask& extra);

/// Worst-case response time of `index` under RM, or -1 if it diverges
/// past the deadline.
[[nodiscard]] std::int64_t rm_response_time(const std::vector<UniTask>& tasks,
                                            std::size_t index);

/// The Lopez et al. EDF-FF utilization bound (beta*m + 1)/(beta + 1):
/// any implicit-deadline set with per-task utilization <= 1/beta and
/// total utilization not above this is schedulable by first-fit EDF
/// partitioning on m processors.  Exact rational so boundary cases are
/// decidable; beta >= 1, m >= 1.
[[nodiscard]] Rational lopez_edf_ff_bound(int m, std::int64_t beta);

/// The largest beta for `tasks`: floor(1/u_max) = min over tasks of
/// floor(p/e).  Returns 1 for an empty set (the weakest bound).
[[nodiscard]] std::int64_t lopez_beta(const std::vector<UniTask>& tasks);

}  // namespace pfair
