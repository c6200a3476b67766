// Equation (3): overhead-aware execution-cost inflation and the
// schedulability machinery built on it (paper Sec. 4).
//
// Under EDF (per processor):
//     e' = e + 2 (S_EDF + C) + max_{U in P_T} D(U)
// where P_T is the set of same-processor tasks with periods larger than
// T's (those are the only tasks T can preempt).
//
// Under PD2 (global, quantum q):
//     e' = e + ceil(e'/q) S_PD2 + C
//            + min(ceil(e'/q) - 1, ceil(p/q) - ceil(e'/q)) (C + D(T))
// solved by fixed-point iteration from e' = e (the paper observes
// convergence within ~5 iterations; we also bound the iteration count
// and report divergence).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "overhead/params.h"

namespace pfair {

/// A task in the overhead experiments: continuous-time parameters in
/// microseconds plus its cache-related preemption delay D(T).
struct OhTask {
  double execution_us = 0.0;
  double period_us = 0.0;
  double cache_delay_us = 0.0;  ///< D(T)

  [[nodiscard]] double utilization() const noexcept { return execution_us / period_us; }
};

/// Inflated EDF cost of a task given the largest cache delay among
/// longer-period tasks sharing its processor (`max_delay_us`; 0 if none).
[[nodiscard]] double inflate_edf_us(const OhTask& t, double max_delay_us,
                                    const OverheadParams& params, std::size_t n_tasks);

/// Result of the PD2 fixed-point inflation.
struct Pd2Inflation {
  double execution_us = 0.0;   ///< converged e'
  std::int64_t quanta = 0;     ///< ceil(e'/q)
  std::int64_t period_quanta = 0;
  int iterations = 0;
  bool feasible = false;  ///< e' <= p and the fixed point converged

  /// Quantised weight ceil(e'/q) / (p/q) as a double.
  [[nodiscard]] double weight() const noexcept {
    return period_quanta > 0 ? static_cast<double>(quanta) / static_cast<double>(period_quanta)
                             : 2.0;
  }
};

/// Runs the Eq.-(3) fixed point for one task under PD2 on `m` processors
/// with `n_tasks` tasks in the system.  Periods are assumed multiples of
/// the quantum (the workload generator guarantees this).
[[nodiscard]] Pd2Inflation inflate_pd2(const OhTask& t, const OverheadParams& params,
                                       std::size_t n_tasks, int m, int max_iterations = 64);

/// Minimum processors PD2 needs for `tasks` once Eq.-(3) inflation and
/// quantum rounding are applied: the smallest m with
/// sum of quantised inflated weights <= m.  Returns nullopt if no m up
/// to `cap` suffices (e.g. some task's inflated weight exceeds 1).
[[nodiscard]] std::optional<int> pd2_min_processors(const std::vector<OhTask>& tasks,
                                                    const OverheadParams& params, int cap = 4096);

/// EDF-FF with overhead-aware acceptance, run on the one packer
/// (partition/heuristics.h): tasks are considered in order of
/// decreasing period (so each task's max_{U in P_T} D(U) is known at
/// placement time) and placed first-fit; a processor keeps its members
/// and inflated load, and accepts a task iff the inflated utilizations
/// on it stay <= 1 (with a 1e-12 slack).
struct EdfFfResult {
  int processors = 0;
  std::vector<int> assignment;          ///< per task (input order), -1 = unplaced
  std::vector<double> inflated_util;    ///< per task, e'/p
  double total_inflated_utilization = 0.0;
  bool feasible = false;
};

/// Partitions with as many processors as needed (min-processor count is
/// the `processors` field).  If `max_processors` >= 0, placement fails
/// once that many processors are open and the result is marked
/// infeasible.
[[nodiscard]] EdfFfResult edf_ff_partition(const std::vector<OhTask>& tasks,
                                           const OverheadParams& params,
                                           int max_processors = -1);

/// Fig.-4 loss decomposition for one task set (see DESIGN.md Sec. 5 for
/// the exact definitions chosen).
struct LossBreakdown {
  double raw_utilization = 0.0;
  int pd2_processors = 0;
  int edfff_processors = 0;
  double pd2_loss = 0.0;  ///< (U'_pd2 - U) / m_pd2
  double edf_loss = 0.0;  ///< (U'_edf - U) / m_edfff
  double ff_loss = 0.0;   ///< (m_edfff - U'_edf) / m_edfff
  bool valid = false;
};

[[nodiscard]] LossBreakdown loss_breakdown(const std::vector<OhTask>& tasks,
                                           const OverheadParams& params);

}  // namespace pfair
