// Quantum-driven global multiprocessor simulator for Pfair scheduling.
//
// The simulator advances time slot by slot.  In each slot it
//   1. applies pending fault-plan / join / leave events,
//   2. moves newly eligible subtasks from the release calendar into the
//      ready queue,
//   3. detects subtasks whose pseudo-deadline has passed,
//   4. invokes the scheduler: takes the M highest-priority subtasks in
//      one pass over the ready queue and advances each picked task to
//      its next subtask (the obs::prof phase timers time steps 2 and 4
//      for the Fig.-2 experiments),
//   5. assigns processors with affinity (a task scheduled in consecutive
//      quanta keeps its processor — the optimisation the paper uses to
//      derive the 1 + min(E-1, P-E) context-switch bound),
//   6. updates preemption / migration / context-switch / lag accounting
//      from the picks.
//
// Supertasks participate as ordinary Pfair servers; each quantum they
// receive is passed to an internal EDF dispatcher over their component
// tasks (Sec. 5.5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dynamics.h"
#include "core/priority.h"
#include "core/supertask.h"
#include "core/task.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "core/windows.h"
#include "obs/bus.h"
#include "sim/ready_queue.h"
#include "sim/release_wheel.h"
#include "sim/trace.h"
#include "util/rational.h"
#include "util/types.h"

namespace pfair {

/// What to do with a subtask that is still unscheduled at its deadline.
enum class MissPolicy : std::uint8_t {
  kScheduleLate,  ///< keep it in the queue; count the miss once (default)
  kDrop,          ///< skip the subtask entirely (quantum is forfeited)
};

struct PfairConfig {
  int processors = 1;
  Algorithm algorithm = Algorithm::kPD2;
  MissPolicy miss_policy = MissPolicy::kScheduleLate;
  bool record_trace = false;    ///< keep a full per-slot allocation trace
  bool affinity = true;         ///< keep tasks on their processor when possible
                                ///< (false = naive assignment; ablation)
  bool check_lags = false;      ///< verify Pfair lag bounds every slot (slow; synchronous periodic systems only)
  Time lag_sample_every = 0;    ///< emit an obs kLagSample per task every N
                                ///< slots (0 = off; needs an attached observer)
  bool idle_fast_forward = true;  ///< jump over provably idle slot runs in
                                  ///< run_until (auto-disabled whenever any
                                  ///< per-slot work could observe them; see
                                  ///< fast_forward_target)
};

/// Scheduled change of the number of live processors (fault injection /
/// repair, Sec. 5.4).  Applied at the start of slot `at`.
struct ProcessorEvent {
  Time at = 0;
  int processors = 1;
};

class PfairSimulator : public engine::Simulator {
 public:
  explicit PfairSimulator(PfairConfig config);

  /// engine::Simulator admission: a synchronous periodic task of weight
  /// e/p, added at the current time (dynamic joins go through join()).
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  /// Adds a periodic / early-release / intra-sporadic task starting at
  /// time 0 (or at the current time if the simulation already ran).
  /// Returns its id.  For IS tasks, `arrivals[i-1]` is the absolute
  /// arrival time of subtask i; arrivals beyond the vector are on time.
  TaskId add_task(const Task& t, std::vector<Time> arrivals = {});

  /// Adds a supertask competing with spec.competing_weight().  If
  /// `bound_proc` is given, every quantum the supertask receives runs on
  /// that processor (the Moir-Ramamurthy motivation: component tasks
  /// must not migrate).  At most one bound task per processor.  If a
  /// fault later removes the bound processor, the binding degrades
  /// gracefully: the server migrates like a normal task until the
  /// processor returns (deadline guarantees are unaffected — binding
  /// only constrains placement).
  TaskId add_supertask(const SupertaskSpec& spec, ProcId bound_proc = kNoProc);

  /// Registers a processor-count change (must be issued before run()
  /// reaches `at`).
  void add_processor_event(ProcessorEvent ev);

  /// This is the scheduler whose dynamic story the paper argues for:
  /// the engine::Simulator join/leave/reweight protocol is fully
  /// supported after the simulation has started.
  [[nodiscard]] bool can_dynamic() const noexcept override { return true; }

  /// Dynamic join at the current simulation time.  Returns the new id,
  /// or std::nullopt if Eq. (2) would be violated.
  std::optional<TaskId> join(const Task& t);

  /// engine::Simulator spelling of join(); same Eq.-(2) admission.
  std::optional<TaskId> join(const engine::TaskSpec& spec) override;

  /// Earliest time `id` may legally leave (core/dynamics.h rules);
  /// -1 for an unknown or inactive id.  request_leave/request_reweight
  /// free the task's weight at max(now, this).
  [[nodiscard]] Time earliest_leave(TaskId id) const;

  /// Initiates an orderly departure: the task stops executing now, its
  /// weight stays accounted until the leave rules release it, and the
  /// returned time is when the capacity frees.  (Stopping first matters:
  /// each new quantum of a continuously running heavy task pushes its
  /// group deadline, and so its earliest leave, forward.)  A leave while
  /// a reweight is pending departs at its switch-over time instead.
  /// nullopt for an unknown or inactive id.
  std::optional<Time> request_leave(TaskId id) override;

  /// Orderly reweighting (leave + rejoin with the new weight, Sec. 5.2):
  /// the task stops executing now and resumes with weight new_e/new_p at
  /// the time the leave rules free its old weight.  Until then the
  /// heavier of the two weights stays accounted.  Fails (returning
  /// nullopt) if the new total would exceed capacity or the task is
  /// already departing or switching; otherwise returns the switch-over
  /// time.
  std::optional<Time> request_reweight(TaskId id, std::int64_t new_e, std::int64_t new_p);

  /// engine::Simulator spelling of request_reweight().
  std::optional<Time> request_reweight(TaskId id, const engine::TaskSpec& spec) override;

  /// Leaves unconditionally, ignoring the safety rules.  Exists so tests
  /// can demonstrate that violating the rules can cause misses.
  void force_leave(TaskId id);

  /// Runs the simulation up to (absolute) time `until`.  May be called
  /// repeatedly with increasing horizons; joins/leaves can be interleaved.
  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override { return now_; }
  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }

  /// Structured-event observation (obs layer); nullptr detaches.  With
  /// no bus attached every emission site is a single pointer test.
  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }
  [[nodiscard]] const ScheduleTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] const PfairConfig& config() const noexcept { return config_; }

  /// Total weight of currently active tasks.  Maintained incrementally
  /// on join/leave/reweight/departure, so admission checks are O(1)
  /// instead of an O(N) Rational sum per call.
  [[nodiscard]] Rational active_weight() const noexcept { return active_weight_; }

  /// O(N) recomputation of active_weight() from scratch; test/debug hook
  /// asserting the incremental sum never drifts.
  [[nodiscard]] Rational recompute_active_weight() const;

  /// Slots skipped by the idle fast-forward (run_until jumping straight
  /// to the next calendar/processor-event boundary); the counter lives
  /// in engine::Metrics so sweeps aggregate it like any other metric.
  [[nodiscard]] std::uint64_t fast_forwarded_slots() const noexcept {
    return metrics_.fast_forwarded_slots;
  }

  /// Quanta allocated to `id` so far.
  [[nodiscard]] std::int64_t allocated(TaskId id) const { return tasks_[id].allocated; }

  /// Exact lag of `id` at the current time (synchronous periodic tasks).
  [[nodiscard]] Rational task_lag(TaskId id) const;

  /// Per-task maximum preemptions observed in any single job.
  [[nodiscard]] std::int64_t max_job_preemptions(TaskId id) const {
    return tasks_[id].max_job_preemptions;
  }

  /// Names of all tasks (index = TaskId), for trace rendering.
  [[nodiscard]] std::vector<std::string> task_names() const;

  /// Deadline-miss count of one supertask component (task `id` must be a
  /// supertask; `component` indexes its spec.components).
  [[nodiscard]] std::uint64_t component_miss_count(TaskId id, std::size_t component) const;

 private:
  struct ComponentRuntime {
    std::int64_t e = 1;
    std::int64_t p = 1;
    Time next_release = 0;
    // Outstanding jobs, oldest first: (absolute deadline, remaining quanta).
    std::vector<std::pair<Time, std::int64_t>> jobs;
    std::uint64_t misses = 0;
    bool miss_counted_for_head = false;
  };

  struct SupertaskRuntime {
    TaskId owner = kNoTask;            ///< the server task this belongs to
    std::vector<ComponentRuntime> components;
    std::int32_t last_component = -1;  ///< for component-switch accounting
  };

  struct TaskRuntime {
    // Fields every pick, release and accounting pass touches come first,
    // so a slot reads the fewest cache lines per task.
    bool active = false;
    bool is_supertask = false;
    bool job_open = false;             ///< the last scheduled subtask was not
                                       ///< the last of its job (preemption test)
    bool miss_counted = false;         ///< its pending subtask's miss was counted
    ProcId last_proc = kNoProc;
    SubtaskIndex next_index = 1;       ///< next subtask to schedule
    SubtaskIndex last_sched_index = 0; ///< 0 = never scheduled
    Time offset = 0;                   ///< accumulated IS window shift
    std::int64_t allocated = 0;
    Time last_sched_slot = -2;         ///< slot of most recent allocation
    // The pending subtask (the next one to schedule) and where it is
    // queued.  Its ref lives in ready_.pending(id).  A task sits in at
    // most one of the ready queue and the release calendar; inactive and
    // departing tasks sit in neither.
    Time calendar_when = -1;           ///< release-wheel slot (-1 = none)
    WindowCursor cursor;               ///< its windows, O(1) advance
    Task spec;
    std::int32_t super_index = -1;     ///< into supertasks_ if is_supertask
    ProcId bound_proc = kNoProc;       ///< fixed processor (supertask binding)
    Time join_time = 0;
    std::vector<Time> arrivals;        ///< IS arrival times (absolute)
    Time leave_at = -1;          ///< pending departure (weight frees then)
    /// Pending weight pending_e/pending_p: > 0 switches to it at
    /// leave_at, 0 is a plain leave, < 0 is a leave that cut such a
    /// switch-over short (weight -pending_e/pending_p).  The heavier of
    /// it and spec's weight is counted until leave_at.
    std::int64_t pending_e = 0;
    std::int64_t pending_p = 0;
    std::int64_t cur_job_preemptions = 0;
    std::int64_t max_job_preemptions = 0;
  };

  void simulate_slot();
  void release_eligible(Time t);
  void detect_misses(Time t);
  /// Schedules the next subtask of `id`: rebuilds its ref and inserts it
  /// into the ready queue or the release calendar depending on its
  /// eligibility time.
  void enqueue_next_subtask(TaskId id, Time earliest);
  /// Eligibility time of subtask `i` of task `id` given that its
  /// predecessor completed at the end of slot `prev_slot` (-1 if none).
  [[nodiscard]] Time eligibility_time(TaskId id, SubtaskIndex i, Time prev_slot) const;
  void dispatch_supertask_quantum(TaskRuntime& rt, Time t);
  void remove_from_queues(TaskId id);
  void check_lags(Time t_next);
  /// Restarts `id`'s subtask chain with weight e/p at time t (an
  /// immediate or a pending reweight's switch-over), dropping whatever
  /// weight a pending change held.
  void restart_with_weight(TaskId id, std::int64_t e, std::int64_t p, Time t);
  /// The weight active_weight_ counts for an active task: its own, or
  /// the heavier pending weight of a reweight not yet switched over.
  [[nodiscard]] static Rational counted_weight(const TaskRuntime& rt);
  void process_pending_departures(Time t);
  /// Latest time in (now_, until] the simulation can jump to with every
  /// skipped slot provably idle and unobserved, or now_ when fast-forward
  /// is not eligible.
  [[nodiscard]] Time fast_forward_target(Time until) const;
  /// Bulk-accounts `count` idle slots (metrics, trace) without running
  /// the per-slot kernel.
  void account_idle_slots(Time count);

  PfairConfig config_;
  Time now_ = 0;
  int live_processors_ = 1;
  std::vector<TaskRuntime> tasks_;
  std::vector<SupertaskRuntime> supertasks_;
  std::int64_t bound_count_ = 0;             ///< tasks with a fixed processor
  ReadyQueue ready_;                         ///< task-keyed calendar ready queue
  ReleaseWheel wheel_;                       ///< release calendar (O(1) push/drain)
  std::int64_t calendar_live_ = 0;           ///< tasks with calendar_when >= 0
  std::vector<ProcessorEvent> proc_events_;  ///< sorted by time, applied in order
  std::size_t next_proc_event_ = 0;
  std::vector<TaskId> pending_departures_;   ///< tasks with leave_at set
  Rational active_weight_ = Rational(0);     ///< cached sum over active tasks
  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
  ScheduleTrace trace_;
  bool last_slot_allocated_ = false;  ///< the preceding simulated slot scheduled
                                      ///< something (its preemption accounting
                                      ///< may still fire one slot later)
  // Scratch buffers reused every slot (the slot kernel is allocation-free
  // once they reach steady-state capacity).
  /// What the assignment/accounting passes need from a scheduled
  /// subtask, recorded at selection so the affinity passes never read
  /// TaskRuntime.
  struct Pick {
    TaskId task;
    ProcId last_proc;       ///< processor of the task's previous quantum
    Time release;           ///< the subtask's pseudo-release (dispatch latency)
    std::uint8_t ran_prev;  ///< the task ran in slot t-1
    std::uint8_t placed;    ///< assignment passes: already given a processor
  };
  std::vector<TaskId> selected_;             ///< ready_.take_top output
  std::vector<Pick> picked_;
  std::vector<TaskId> requeue_;              ///< kScheduleLate miss re-inserts
  std::vector<TaskId> prev_slot_tasks_;      ///< proc -> task of previous slot
  std::vector<TaskId> next_slot_tasks_;      ///< proc -> task of this slot (swapped in)
  std::vector<std::int32_t> assign_;         ///< proc -> index into picked_ (-1 idle)
};

}  // namespace pfair
