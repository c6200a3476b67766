// Structured scheduling events: the vocabulary of the pfair::obs layer.
//
// Every simulator in the repo narrates its run as a stream of typed
// events — slot boundaries, dispatches, preemptions, migrations,
// context switches, releases, completions, deadline misses, dynamic
// joins/leaves, CBS budget postponements, lag samples, and
// scheduler invocations.  The terminal aggregates in
// engine::Metrics say *how many*; the event stream says *when* and
// *where*, which is what timelines, histograms, and trace viewers
// need (the multi-criteria argument of Lupu et al.: distributions and
// timelines distinguish schedulers, totals alone do not).
//
// Events are deliberately flat POD: one kind, one timestamp, optional
// task/processor, one double payload.  The payload meaning is fixed
// per kind (see each enumerator).  Flat events keep emission at a few
// stores plus a virtual call per attached sink, and make every sink —
// counters, JSONL, Perfetto — a simple switch.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace pfair::obs {

enum class EventKind : std::uint8_t {
  kSlotBegin,        ///< quantum sims, once per slot; value = live processors
  kSlotEnd,          ///< quantum sims, once per slot; value = busy processors
  kDispatch,         ///< quantum sims: task gets a quantum on proc;
                     ///< value = dispatch latency (slots since pseudo-release,
                     ///< -1 when the scheduler has no release to measure from)
  kExecSlice,        ///< event-driven sims: task runs on proc; value = duration
  kServedSlice,      ///< CBS: server `task` executes; value = duration
  kPreemption,       ///< `task` was descheduled with work left;
                     ///< value = preempting task id (-1 when unattributable)
  kMigration,        ///< `task` resumes on proc; value = previous processor
  kContextSwitch,    ///< proc switches in `task`
  kComponentSwitch,  ///< supertask-internal EDF switch; value = component index
  kJobRelease,       ///< value = absolute deadline of the released job
  kJobComplete,      ///< value = response time (slots; -1 when not tracked)
  kServedJobComplete,///< CBS: server `task` finished an aperiodic job
  kDeadlineMiss,     ///< `task` missed at `time`
  kComponentMiss,    ///< supertask component miss (task = the supertask)
  kLagViolation,     ///< Pfair lag bound violated for `task`
  kLagSample,        ///< value = lag(task, time) as a double
  kTaskJoin,         ///< value = weight of the joining task
  kTaskLeave,        ///< task's capacity freed
  kBudgetPostpone,   ///< CBS: server budget exhausted, deadline postponed;
                     ///< value = the new absolute server deadline
  kSchedInvoke,      ///< one scheduler invocation; value = 0 (timings live
                     ///< in obs::prof: this is its kSelect phase)
  kOverheadNs,       ///< release processing, not counted as a separate
                     ///< invocation; value = 0 (timings live in obs::prof:
                     ///< this is its kRelease phase)
  kAdmitRequest,     ///< serve: an admission request arrived;
                     ///< value = requested weight e/p as a double
  kAdmitGrant,       ///< serve: request admitted; value = deciding tier (0-2)
  kAdmitReject,      ///< serve: request rejected; value = deciding tier (0-2)
};

/// Stable lower-case name used by the JSONL sink and the trace CLI.
[[nodiscard]] const char* to_string(EventKind k) noexcept;

/// Number of enumerators (for per-kind tables in sinks).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kAdmitReject) + 1;

struct Event {
  EventKind kind = EventKind::kSlotBegin;
  Time time = 0;
  TaskId task = kNoTask;
  ProcId proc = kNoProc;
  double value = 0.0;
};

}  // namespace pfair::obs
