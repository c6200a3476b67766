// The scheduler-agnostic simulator interface.
//
// Every simulator stack in the repo — quantum-driven global Pfair,
// event-driven uniprocessor EDF/RM, the partitioned ensemble, global
// job-level EDF/RM, weighted round-robin, CBS, and PD²'s successors BF
// and RUN — implements this interface, so comparison drivers and tests
// can run the same workload through any of them and read the same
// engine::Metrics.
//
// Tasks are submitted as a TaskSpec: one request shape shared by static
// admission (admit) and the dynamic protocol (join / request_leave /
// request_reweight), so a request stream recorded against one scheduler
// replays against any other.  Schedulers that cannot change their task
// system mid-run report can_dynamic() = false and inherit the rejecting
// defaults for the dynamic calls.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "engine/metrics.h"
#include "util/types.h"

namespace pfair::obs {
class EventBus;
}  // namespace pfair::obs

namespace pfair::engine {

/// A synchronous periodic task as submitted through the request API:
/// worst-case execution `execution` every `period` quanta (implicit
/// deadline), releasing from the current time.  `name` is an optional
/// trace label.
struct TaskSpec {
  std::int64_t execution = 1;
  std::int64_t period = 1;
  std::string name;

  /// 0 < e <= p — the same validity rule every simulator enforces.
  [[nodiscard]] bool valid() const noexcept {
    return execution > 0 && period > 0 && execution <= period;
  }
};

/// Shorthand for the common execution/period spelling.
[[nodiscard]] inline TaskSpec task_spec(std::int64_t execution, std::int64_t period,
                                        std::string name = {}) {
  TaskSpec s;
  s.execution = execution;
  s.period = period;
  s.name = std::move(name);
  return s;
}

class Simulator {
 public:
  virtual ~Simulator() = default;

  /// Advances the simulation to (absolute) time `until`.  May be called
  /// repeatedly with increasing horizons.
  virtual void run_until(Time until) = 0;

  /// Current simulation time.
  [[nodiscard]] virtual Time now() const = 0;

  /// Unified counters (see engine/metrics.h for field semantics).
  [[nodiscard]] virtual const Metrics& metrics() const = 0;

  /// Admits the task described by `spec`, releasing from the current
  /// time.  Returns false if this simulator cannot admit it — the spec
  /// is invalid, admission is only supported before the simulation
  /// starts, or the task does not fit the remaining capacity.  Every
  /// call increments Metrics::tasks_admitted or tasks_rejected.
  virtual bool admit(const TaskSpec& spec) = 0;

  // --- dynamic task protocol -----------------------------------------
  // Default implementations reject: only schedulers whose admission
  // story survives mid-run task-system changes (Pfair, Sec. 5.2)
  // override them.  Probe can_dynamic() before scripting joins/leaves.

  /// True when join/leave/reweight work after run_until() has advanced
  /// time.  (admit() may still work mid-run on schedulers where static
  /// addition is safe — this probes the *departure* rules.)
  [[nodiscard]] virtual bool can_dynamic() const noexcept { return false; }

  /// Dynamic join at the current time; nullopt when the scheduler's
  /// admission rule rejects (or dynamics are unsupported).  Counts into
  /// tasks_admitted / tasks_rejected like admit().
  virtual std::optional<TaskId> join(const TaskSpec& /*spec*/) { return std::nullopt; }

  /// Orderly departure: the task stops executing now, its capacity is
  /// released when the departure rules allow, and the returned time is
  /// when it frees.  nullopt when unsupported or `id` is unknown.
  virtual std::optional<Time> request_leave(TaskId /*id*/) { return std::nullopt; }

  /// Orderly reweight to `spec`'s rate (leave + rejoin semantics):
  /// returns the switch-over time, or nullopt when the new total would
  /// not fit (or dynamics are unsupported).
  virtual std::optional<Time> request_reweight(TaskId /*id*/, const TaskSpec& /*spec*/) {
    return std::nullopt;
  }

  /// Attaches a structured-event observer (see obs/bus.h).  The bus is
  /// borrowed, not owned, and must outlive the simulator; passing
  /// nullptr detaches.
  virtual void attach_observer(obs::EventBus* bus) = 0;

 protected:
  Simulator() = default;
  Simulator(const Simulator&) = default;
  Simulator& operator=(const Simulator&) = default;
  Simulator(Simulator&&) = default;
  Simulator& operator=(Simulator&&) = default;
};

}  // namespace pfair::engine
