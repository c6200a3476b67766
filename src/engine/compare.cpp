#include "engine/compare.h"

#include <memory>
#include <utility>

namespace pfair::engine {

std::vector<CompareResult> compare_schedulers(const std::vector<UniTask>& workload,
                                              const std::vector<SchedulerSpec>& specs,
                                              Time horizon) {
  std::vector<CompareResult> out;
  out.reserve(specs.size());
  for (const SchedulerSpec& spec : specs) {
    CompareResult r;
    r.name = spec.name;
    const std::unique_ptr<Simulator> sim = make_simulator(spec.kind, spec.config);
    // Every task is offered, so metrics().tasks_rejected shows how many
    // the scheduler turned away (capacity, bin-packing failure, ...).  A
    // scheduler that dropped any task never runs — comparing partial
    // task systems would be apples to oranges — but its admission
    // counters stay visible instead of vanishing with the simulator.
    for (const UniTask& t : workload) sim->admit(task_spec(t.execution, t.period));
    r.metrics = sim->metrics();
    r.feasible = r.metrics.tasks_rejected == 0;
    if (r.feasible) {
      sim->run_until(horizon);
      r.metrics = sim->metrics();
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace pfair::engine
