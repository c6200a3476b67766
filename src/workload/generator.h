// Random workload synthesis for the experiments (paper Sec. 4).
//
// Two families of task sets are needed:
//   - integer-quanta Pfair task sets for the simulator experiments
//     (Fig. 2 and the optimality property suites), and
//   - continuous-time (microsecond) task sets with cache-delay samples
//     for the schedulability experiments (Figs. 3 and 4): N tasks with a
//     prescribed total utilization, D(T) ~ U[0, 100 us], periods
//     multiples of the 1 ms quantum.
//
// Thread-safety: every generator draws only from the caller-supplied
// Rng and touches no mutable shared state, so concurrent calls with
// distinct Rng instances are safe — engine::ParallelSweep trial
// functions rely on this.
#pragma once

#include <vector>

#include "core/supertask.h"
#include "core/task.h"
#include "overhead/inflation.h"
#include "uniproc/uni_task.h"
#include "util/rng.h"

namespace pfair {

struct OhWorkloadConfig {
  std::size_t n_tasks = 50;
  double total_utilization = 5.0;
  double period_min_us = 50'000.0;     ///< 50 ms
  double period_max_us = 1'000'000.0;  ///< 1 s
  double quantum_us = 1000.0;          ///< periods rounded to multiples of this
  double cache_delay_max_us = 100.0;   ///< D(T) ~ U[0, this]
};

/// Draws a task set with sum of utilizations == total_utilization (up to
/// rounding of execution times to 0.1 us), each task utilization < 1.
/// Periods are log-uniform in [period_min, period_max], rounded to
/// quantum multiples.
[[nodiscard]] std::vector<OhTask> generate_oh_tasks(const OhWorkloadConfig& cfg, Rng& rng);

/// Random integer-quanta Pfair task with 1 <= e <= p <= max_period.
/// Periods are drawn from the divisors of 720720 (= lcm(1..16) * 11 * 13 /
/// ...), so weight sums over arbitrarily many generated tasks stay
/// exactly representable in 64-bit rationals; for max_period <= 16 this
/// coincides with a uniform period draw.
[[nodiscard]] Task random_pfair_task(Rng& rng, std::int64_t max_period,
                                     TaskKind kind = TaskKind::kPeriodic);

/// Builds a Pfair-feasible task set on m processors: adds random tasks
/// while the total weight stays <= m, then (if `fill` is set) tops the
/// set up with one final task making the total weight exactly m.
[[nodiscard]] TaskSet generate_feasible_taskset(Rng& rng, int m, std::size_t max_tasks,
                                                std::int64_t max_period, bool fill = false,
                                                TaskKind kind = TaskKind::kPeriodic);

/// Random uniprocessor job set with total utilization <= u_cap, for the
/// Fig.-2(a) overhead measurements (integer execution/period units).
[[nodiscard]] std::vector<UniTask> generate_uni_tasks(Rng& rng, std::size_t n, double u_cap,
                                                      std::int64_t max_period);

/// The partitioning adversary from Sec. 3: m + 1 tasks, each with
/// utilization (1 + 1/eps_den) / 2 — unpartitionable on m processors for
/// any heuristic, with total utilization -> (m+1)/2 as eps_den grows.
[[nodiscard]] std::vector<UniTask> partition_adversary(int m, std::int64_t eps_den);

/// The paper's Sec.-1 example of partitioning sub-optimality: three
/// tasks of weight 2/3 on two processors (feasible globally, not
/// partitionable).
[[nodiscard]] TaskSet two_processor_counterexample();

/// The Fig.-5 task set: V = 1/2, W = 1/3, X = 1/3, Y = 2/9 plus a
/// supertask S = {T: 1/5, U: 1/45} competing at 2/9 (returned
/// separately).
struct Fig5System {
  TaskSet normal_tasks;       ///< V, W, X, Y
  SupertaskSpec supertask;    ///< S with components T, U
};
[[nodiscard]] Fig5System fig5_system();

}  // namespace pfair
