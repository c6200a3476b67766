// Scheduler-agnostic comparison driver.
//
// The paper's comparisons (Dhall effect, PD2 vs EDF-FF runtime
// behaviour) all have the same shape: build one workload, run it
// through several schedulers, read one set of counters.  A
// SchedulerSpec is plain data — a display name, a registered kind and
// that kind's config — and compare_schedulers() builds each simulator
// through make_simulator, runs the workload through it and returns the
// unified metrics, so benches and tests no longer hand-roll a loop per
// scheduler pair.
#pragma once

#include <string>
#include <vector>

#include "engine/factory.h"
#include "engine/metrics.h"
#include "uniproc/uni_task.h"

namespace pfair::engine {

struct SchedulerSpec {
  std::string name;
  SchedulerKind kind = SchedulerKind::kPfair;
  SimulatorConfig config;  ///< only the member matching `kind` is read
};

struct CompareResult {
  std::string name;
  bool feasible = false;  ///< the scheduler accepted every task
  Metrics metrics;        ///< counters at the horizon when feasible;
                          ///< otherwise only the admission counters
                          ///< (tasks_admitted / tasks_rejected) are set
};

/// Runs `workload` through every spec up to `horizon`; results are in
/// spec order.  Each simulator is loaded through Simulator::admit(); a
/// rejected task makes the spec infeasible and its simulator never runs.
/// Throws std::invalid_argument when a spec's config is unusable (see
/// make_simulator).
[[nodiscard]] std::vector<CompareResult> compare_schedulers(
    const std::vector<UniTask>& workload, const std::vector<SchedulerSpec>& specs,
    Time horizon);

}  // namespace pfair::engine
