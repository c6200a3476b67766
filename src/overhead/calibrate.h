// Host calibration of the scheduling-cost tables.
//
// The paper's Fig.-3/4 experiments used S_EDF and S_PD2 "chosen based on
// the values obtained by us in the scheduling-overhead experiments"
// (Fig. 2).  This module reproduces that pipeline: measure the
// per-invocation cost of both schedulers on the build host across the
// paper's (task count, processor count) grid and return a
// SchedCostModel filled with the measurements, ready to drop into
// OverheadParams.  The default paper-magnitude tables remain available
// for reproducible offline runs.
//
// The per-invocation cost is read from obs::prof, the one clock and
// timing store: release processing (the kRelease phase) plus selection
// (kSelect), divided by the number of kSelect scopes, as the delta of
// the phase totals around one run.  The Fig.-2 benches use the same two
// functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/task.h"
#include "overhead/params.h"
#include "util/rng.h"
#include "util/types.h"

namespace pfair {

struct CalibrationConfig {
  std::int64_t horizon = 20000;  ///< slots simulated per grid point
  std::int64_t sets = 3;         ///< task sets averaged per grid point
  std::uint64_t seed = 1;
};

/// The Fig.-2 workload: `n` integer-quanta tasks with total weight
/// <= u_cap and periods in [p_max/100, p_max] quanta, so EDF and PD2
/// see the *same* task set, as in the paper.
[[nodiscard]] std::vector<Task> fig2_taskset(Rng& rng, std::size_t n, double u_cap,
                                             std::int64_t p_max = 20000);

/// Mean µs per EDF scheduler invocation (release processing included)
/// of `tasks` on one processor over [0, horizon).
[[nodiscard]] double edf_invocation_us(const std::vector<Task>& tasks, Time horizon);

/// Mean µs per PD2 slot (release processing included) of `tasks` on
/// `processors` processors over [0, horizon).  Idle fast-forward is off,
/// so every slot is one timed invocation.
[[nodiscard]] double pd2_invocation_us(const std::vector<Task>& tasks, int processors,
                                       Time horizon);

/// Measures EDF (1 processor) and PD2 (1..16 processors) invocation
/// costs across the paper's task-count grid.  Takes a few seconds at
/// the default settings.
[[nodiscard]] SchedCostModel calibrate_sched_costs(const CalibrationConfig& config = {});

}  // namespace pfair
