// Boundary-fair (BF) scheduling [Zhu, Mossé, Melhem, RTSS'03].
//
// BF keeps Pfair's optimality (any set with sum wt(T) <= M is
// schedulable) while making scheduling decisions only at *period
// boundaries* — the distinct multiples of any task's period — instead
// of at every quantum.  At each boundary b_k the scheduler computes,
// per task, the integer allocation for the whole interval
// [b_k, b_{k+1}) at once:
//
//   F_i  = wt(T_i) * b_{k+1} - allocated_i      (the fluid target)
//   m_i  = max(0, floor(F_i))                   (mandatory units)
//   +1 optional unit iff frac(F_i) > 0, F_i > 0 and m_i < L
//
// granting the RC = M*L - sum m_i leftover units to eligible tasks in
// PD2 urgency order of their pending subtask (earliest pseudo-deadline,
// then b-bit, then group deadline, then id — the same comparison the
// per-quantum scheduler uses, aggregated per interval).  Keeping every
// cumulative allocation in {floor, ceil} of the fluid weight * time
// makes the allocation *exact* at each task's own period boundaries
// (wt * k * p = k * e is integral there), so every job receives exactly
// e quanta between release and deadline: no deadline is ever missed.
//
// Within an interval the chosen x_i quanta are laid out with
// McNaughton's wrap-around rule (fill processor 0 slot by slot, wrap
// the overflow onto the next processor), which is valid whenever
// x_i <= L and splits at most M-1 tasks per interval — this is where
// BF's preemption/migration savings over per-quantum Pfair come from.
//
// Determinism: integer arithmetic only (per-task rationals e*b'/p never
// leave int64), id-ordered tie-breaks, id-ordered McNaughton layout.
// The same admitted set always produces byte-identical traces/metrics.
#pragma once

#include <vector>

#include "core/task.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"
#include "sim/trace.h"

namespace pfair {

struct BfConfig {
  int processors = 1;
  bool record_trace = true;  ///< keep the full per-slot allocation trace
};

class BfSimulator : public engine::Simulator {
 public:
  explicit BfSimulator(TaskSet tasks = {}, BfConfig config = {});

  /// Admission is only possible before the first slot runs: the
  /// boundary set and the fluid targets are fixed at start.  Dynamic
  /// join/leave/reweight inherit the rejecting defaults
  /// (can_dynamic() = false), so refusals are well-defined, not UB.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override { return now_; }
  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] const ScheduleTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::int64_t allocated(TaskId id) const { return allocated_[id]; }
  [[nodiscard]] const TaskSet& tasks() const noexcept { return tasks_; }

  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }

 private:
  /// Computes the boundary interval starting at now_ (which must be a
  /// boundary): releases jobs, checks deadlines, allocates mandatory +
  /// optional units, lays the interval out (McNaughton).
  void plan_interval();
  /// Emits one laid-out slot (trace, obs events, Sec.-4 accounting).
  void emit_slot();
  /// Grows the per-task state for a task added to tasks_.
  void add_task_state(const Task& t);

  /// One task's quanta in the McNaughton fill order of an interval: it
  /// covers fill positions [previous entry's end, end).
  struct FillRun {
    TaskId task;
    std::int64_t end;
  };

  TaskSet tasks_;
  BfConfig config_;
  Time now_ = 0;
  std::vector<std::int64_t> allocated_;  ///< cumulative quanta per task

  // Per-task cursors, advanced as time passes instead of divided out.
  std::vector<Time> next_boundary_;     ///< next multiple of the period >= now_
  std::vector<std::int64_t> due_;       ///< quanta owed by next_boundary_
  std::vector<std::int64_t> job_left_;  ///< quanta left in the current job
  std::vector<Time> job_release_;       ///< release of the current job
  std::vector<Time> last_slot_;         ///< last slot the task ran in (-1: never)

  // Current interval [interval_begin_, interval_end_).  Processor p runs
  // fill positions [p*L, (p+1)*L); fill_cursor_[p] is its current run.
  Time interval_begin_ = 0;
  Time interval_end_ = 0;
  std::vector<FillRun> fill_;
  std::int64_t filled_ = 0;  ///< total quanta laid out this interval
  std::vector<std::size_t> fill_cursor_;

  ScheduleTrace trace_;
  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off

  // Scratch for the Sec.-4 event accounting, reused every slot.
  std::vector<TaskId> prev_proc_task_;
  std::vector<TaskId> cur_proc_task_;
  std::vector<ProcId> last_proc_;
  // Per-interval allocation scratch.
  std::vector<std::int64_t> quota_;  ///< x_i for the current interval
  std::vector<TaskId> eligible_;     ///< optional-unit candidates
  /// PD2 urgency of a task's pending subtask, aggregated to the interval
  /// level: earlier pseudo-deadline first, then b-bit 1 before 0, then
  /// larger group deadline, then lower id.  The same comparison chain the
  /// per-quantum PD2 scheduler uses — BF only changes *when* it is
  /// consulted, not *what* it prefers.
  struct Rank {
    Time deadline = 0;
    int b = 0;
    Time group = 0;
    TaskId id = 0;

    [[nodiscard]] bool before(const Rank& o) const noexcept {
      if (deadline != o.deadline) return deadline < o.deadline;
      if (b != o.b) return b > o.b;
      if (group != o.group) return group > o.group;
      return id < o.id;
    }
  };
  std::vector<Rank> ranks_;  ///< ranks of the candidates, each computed once
};

}  // namespace pfair
