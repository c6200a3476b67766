#include "sim/bf_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/windows.h"
#include "util/math.h"

namespace pfair {

BfSimulator::BfSimulator(TaskSet tasks, BfConfig config)
    : tasks_(std::move(tasks)),
      config_(config),
      fill_cursor_(static_cast<std::size_t>(config.processors), 0),
      prev_proc_task_(static_cast<std::size_t>(config.processors), kNoTask),
      cur_proc_task_(static_cast<std::size_t>(config.processors), kNoTask) {
  assert(config_.processors >= 1);
  for (TaskId id = 0; id < tasks_.size(); ++id) add_task_state(tasks_[id]);
}

void BfSimulator::add_task_state(const Task& t) {
  allocated_.push_back(0);
  next_boundary_.push_back(0);
  due_.push_back(0);
  job_left_.push_back(t.execution);
  job_release_.push_back(0);
  last_slot_.push_back(-1);
  last_proc_.push_back(kNoProc);
  quota_.push_back(0);
}

bool BfSimulator::admit(const engine::TaskSpec& spec) {
  if (now_ > 0 || !spec.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  const Task t = make_task(spec.execution, spec.period, TaskKind::kPeriodic, spec.name);
  tasks_.add(t);
  add_task_state(t);
  ++metrics_.tasks_admitted;
  return true;
}

void BfSimulator::plan_interval() {
  const Time b = now_;
  const std::size_t n = tasks_.size();
  const std::int64_t m_procs = config_.processors;
  const auto rank_of = [&](TaskId id, SubtaskIndex s) {
    const Task& t = tasks_[id];
    return Rank{subtask_deadline(t.execution, t.period, s), b_bit(t.execution, t.period, s),
                group_deadline(t.execution, t.period, s), id};
  };

  // Period boundaries of individual tasks: job deadlines are checked
  // and the next jobs released exactly here — every job deadline is a
  // boundary, so no miss can hide between decisions.  Each task's cursor
  // holds its next period multiple, so the next boundary is their
  // minimum once the tasks due at b have stepped on.
  Time b_next = std::numeric_limits<Time>::max();
  for (TaskId id = 0; id < n; ++id) {
    const Task& t = tasks_[id];
    if (next_boundary_[id] == b) {
      // due_ is what the job ending at b needed (0 at time 0).
      if (allocated_[id] < due_[id]) {
        metrics_.record_miss(b);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, b, id);
      }
      ++metrics_.jobs_released;
      obs::emit(bus_, obs::EventKind::kJobRelease, b, id, kNoProc,
                static_cast<double>(b + t.period));
      next_boundary_[id] = b + t.period;
      due_[id] += t.execution;
    }
    b_next = std::min(b_next, next_boundary_[id]);
  }
  assert(b_next > b);
  interval_begin_ = b;
  interval_end_ = b_next;
  const Time L = b_next - b;

  // Mandatory units: m_i = max(0, floor(F_i)) with F_i the fluid target
  // wt * b_next - allocated.  All per-task arithmetic stays over the
  // task's own denominator p_i, so nothing ever needs a common period
  // lcm.  F_i <= 0 means the task holds its ceiling allocation and a
  // short interval ends before the fluid schedule catches up: it gets
  // (and may take) nothing.
  std::int64_t mandatory_total = 0;
  eligible_.clear();
  for (TaskId id = 0; id < n; ++id) {
    const Task& t = tasks_[id];
    const std::int64_t f_num =
        checked_mul(t.execution, b_next) - checked_mul(allocated_[id], t.period);
    std::int64_t m = 0;
    if (f_num > 0) {
      // m > L is only reachable after a prior overload: capped.
      m = std::min<std::int64_t>(f_num / t.period, L);
      if (f_num % t.period != 0 && m < L) eligible_.push_back(id);
    }
    quota_[id] = m;
    mandatory_total += m;
  }

  const std::int64_t capacity = checked_mul(m_procs, L);
  ranks_.clear();
  if (mandatory_total > capacity) {
    // Overloaded interval (sum wt > M, or an earlier overload's debt):
    // serve mandatory units in PD2 urgency order until capacity runs
    // out; the shortfall surfaces as boundary deadline misses above.
    for (TaskId id = 0; id < n; ++id)
      if (quota_[id] > 0) ranks_.push_back(rank_of(id, allocated_[id] + 1));
    std::sort(ranks_.begin(), ranks_.end(),
              [](const Rank& x, const Rank& y) { return x.before(y); });
    std::int64_t left = capacity;
    for (const Rank& r : ranks_) {
      const std::int64_t take = std::min(quota_[r.id], left);
      quota_[r.id] = take;
      left -= take;
    }
  } else {
    // Optional units: hand the RC = M*L - sum m_i leftover quanta to the
    // RC most urgent eligible tasks, ranked by the first subtask *after*
    // the mandatory batch (the one the extra quantum would serve).  Each
    // winner gets exactly one unit, so only the set of winners matters:
    // when every candidate wins no rank is needed, otherwise a selection
    // by rank finds the same RC tasks a full sort would put first.
    const auto rc = static_cast<std::size_t>(capacity - mandatory_total);
    if (rc >= eligible_.size()) {
      for (const TaskId id : eligible_) ++quota_[id];
    } else if (rc > 0) {
      for (const TaskId id : eligible_)
        ranks_.push_back(rank_of(id, allocated_[id] + quota_[id] + 1));
      std::nth_element(ranks_.begin(), ranks_.begin() + static_cast<std::ptrdiff_t>(rc),
                       ranks_.end(), [](const Rank& x, const Rank& y) { return x.before(y); });
      for (std::size_t k = 0; k < rc; ++k) ++quota_[ranks_[k].id];
    }
  }

  // McNaughton wrap-around layout: tasks in id order fill processor 0
  // slot by slot, overflow wraps onto the next processor.  Each task's
  // quanta stay contiguous (split across at most two processors), so an
  // interval causes at most M-1 mid-job splits — the decision-point
  // economy BF exists for.  The layout is kept as the fill order itself:
  // processor p runs fill positions [p*L, (p+1)*L), and fill_cursor_[p]
  // points at the run covering its current slot.
  fill_.clear();
  filled_ = 0;
  for (TaskId id = 0; id < n; ++id) {
    if (quota_[id] == 0) continue;
    filled_ += quota_[id];
    fill_.push_back(FillRun{id, filled_});
  }
  assert(filled_ <= capacity);
  std::size_t run = 0;
  for (std::size_t proc = 0; proc < static_cast<std::size_t>(m_procs); ++proc) {
    const std::int64_t start = static_cast<std::int64_t>(proc) * L;
    while (run < fill_.size() && fill_[run].end <= start) ++run;
    fill_cursor_[proc] = run;
  }

  ++metrics_.scheduling_points;
  obs::emit(bus_, obs::EventKind::kSchedInvoke, b);
}

void BfSimulator::emit_slot() {
  const Time s = now_;
  const std::size_t m = static_cast<std::size_t>(config_.processors);
  const std::int64_t L = interval_end_ - interval_begin_;
  const std::int64_t offset = s - interval_begin_;

  obs::emit(bus_, obs::EventKind::kSlotBegin, s, kNoTask, kNoProc,
            static_cast<double>(config_.processors));
  if (config_.record_trace) trace_.begin_slot(m);
  int served = 0;
  for (std::size_t proc = 0; proc < m; ++proc) {
    const std::int64_t at = static_cast<std::int64_t>(proc) * L + offset;
    if (at >= filled_) {
      cur_proc_task_[proc] = kNoTask;
      continue;
    }
    // Runs are at least one quantum long: one step reaches the next.
    std::size_t& run = fill_cursor_[proc];
    if (fill_[run].end <= at) ++run;
    const TaskId id = fill_[run].task;
    const Task& t = tasks_[id];
    if (config_.record_trace) trace_.record(static_cast<ProcId>(proc), id);
    cur_proc_task_[proc] = id;
    last_slot_[id] = s;
    ++allocated_[id];
    ++served;
    obs::emit(bus_, obs::EventKind::kDispatch, s, id, static_cast<ProcId>(proc),
              -1.0);  // interval batching has no per-quantum release to measure from
    if (prev_proc_task_[proc] != id) {
      ++metrics_.context_switches;
      obs::emit(bus_, obs::EventKind::kContextSwitch, s, id, static_cast<ProcId>(proc));
    }
    if (last_proc_[id] != kNoProc && last_proc_[id] != static_cast<ProcId>(proc)) {
      ++metrics_.migrations;
      obs::emit(bus_, obs::EventKind::kMigration, s, id, static_cast<ProcId>(proc),
                static_cast<double>(last_proc_[id]));
    }
    last_proc_[id] = static_cast<ProcId>(proc);
    if (--job_left_[id] == 0) {
      // The current job, released at job_release_, just finished.
      const double response = static_cast<double>(s + 1 - job_release_[id]);
      job_left_[id] = t.execution;
      job_release_[id] += t.period;
      ++metrics_.jobs_completed;
      metrics_.response_time.add(response);
      obs::emit(bus_, obs::EventKind::kJobComplete, s, id, static_cast<ProcId>(proc),
                response);
    }
  }
  // Sec.-4 preemption rule: scheduled in s-1, current job incomplete,
  // not scheduled in s.  Only the previous slot's tasks can qualify.  A
  // McNaughton row holds ascending ids across processors (processor p's
  // slot is fill position p*L + offset, and the fill runs in id order),
  // so walking it by processor emits in id order.
  for (const TaskId id : prev_proc_task_) {
    if (id == kNoTask) break;  // idle processors come after the busy ones
    if (last_slot_[id] != s && job_left_[id] != tasks_[id].execution) {
      ++metrics_.preemptions;
      obs::emit(bus_, obs::EventKind::kPreemption, s, id, kNoProc, -1.0);
    }
  }
  std::swap(prev_proc_task_, cur_proc_task_);
  ++metrics_.slots;
  metrics_.busy_quanta += static_cast<std::uint64_t>(served);
  metrics_.idle_quanta += static_cast<std::uint64_t>(config_.processors - served);
  obs::emit(bus_, obs::EventKind::kSlotEnd, s, kNoTask, kNoProc,
            static_cast<double>(served));
  ++now_;
}

void BfSimulator::run_until(Time until) {
  while (now_ < until) {
    if (tasks_.empty()) {
      // No tasks, no boundaries: the whole range is idle.
      const Time count = until - now_;
      const std::size_t m = static_cast<std::size_t>(config_.processors);
      if (config_.record_trace) trace_.idle_slots(m, static_cast<std::size_t>(count));
      metrics_.slots += static_cast<std::uint64_t>(count);
      metrics_.idle_quanta += static_cast<std::uint64_t>(count) * m;
      now_ = until;
      break;
    }
    if (now_ == interval_end_) plan_interval();
    const Time stop = std::min(until, interval_end_);
    while (now_ < stop) emit_slot();
  }
}

}  // namespace pfair
