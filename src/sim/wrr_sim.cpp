#include "sim/wrr_sim.h"

#include <cassert>
#include <cmath>

#include "core/lag.h"

namespace pfair {

WrrSimulator::WrrSimulator(TaskSet tasks, WrrConfig config)
    : tasks_(std::move(tasks)),
      config_(config),
      allocated_(tasks_.size(), 0),
      budget_(tasks_.size(), 0),
      carry_(tasks_.size(), Rational(0)),
      prev_proc_task_(static_cast<std::size_t>(config.processors), kNoTask),
      cur_proc_task_(static_cast<std::size_t>(config.processors), kNoTask),
      prev_sched_(tasks_.size(), false),
      cur_sched_(tasks_.size(), false),
      last_proc_(tasks_.size(), kNoProc) {
  assert(config_.processors >= 1);
  assert(config_.frame >= 1);
  // Budgets are credited by the slot loop at each frame boundary
  // (including t = 0); crediting here too would double the first frame.
}

bool WrrSimulator::admit(const engine::TaskSpec& spec) {
  if (now_ > 0 || !spec.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  const Task t = make_task(spec.execution, spec.period, TaskKind::kPeriodic, spec.name);
  tasks_.add(t);
  allocated_.push_back(0);
  budget_.push_back(0);
  carry_.push_back(Rational(0));
  prev_sched_.push_back(false);
  cur_sched_.push_back(false);
  last_proc_.push_back(kNoProc);
  ++metrics_.tasks_admitted;
  return true;
}

void WrrSimulator::start_frame() {
  // Deficit-style budgets: each frame credits wt(T) * F quanta exactly;
  // both the fractional part *and* any quanta the rotation failed to
  // serve last frame are carried forward, so no capacity is silently
  // dropped and long-run rates are exact (sum of credits per frame =
  // F * total weight <= F * M).
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    carry_[id] += Rational(budget_[id]);  // unserved quanta from last frame
    carry_[id] += Rational(t.execution * config_.frame, t.period);
    budget_[id] = carry_[id].floor();
    carry_[id] -= Rational(budget_[id]);
  }
}

void WrrSimulator::run_until(Time until) {
  const std::size_t n = tasks_.size();
  while (now_ < until) {
    if (now_ % config_.frame == 0) start_frame();
    obs::emit(bus_, obs::EventKind::kSlotBegin, now_, kNoTask, kNoProc,
              static_cast<double>(config_.processors));
    if (config_.record_trace)
      trace_.begin_slot(static_cast<std::size_t>(config_.processors));
    // True WRR semantics: the task at the cursor is drained to zero
    // budget before the cursor advances (this consecutive service is
    // what makes WRR's allocation error grow with the frame length —
    // the gap PD2's deadlines close).
    std::size_t skipped = 0;
    while (skipped < n && budget_[cursor_] == 0) {
      cursor_ = (cursor_ + 1) % n;
      ++skipped;
    }
    std::fill(cur_sched_.begin(), cur_sched_.end(), false);
    std::fill(cur_proc_task_.begin(), cur_proc_task_.end(), kNoTask);
    int served = 0;
    std::size_t inspected = 0;
    std::size_t cur = cursor_;
    while (served < config_.processors && inspected < n) {
      const TaskId id = static_cast<TaskId>(cur);
      if (budget_[id] > 0) {
        --budget_[id];
        ++allocated_[id];
        const ProcId proc = static_cast<ProcId>(served);
        if (config_.record_trace) trace_.record(proc, id);
        cur_sched_[id] = true;
        cur_proc_task_[proc] = id;
        // Sec.-4 accounting: switch-in on a processor change of task,
        // migration on a task change of processor (plain WRR has no
        // affinity assignment, so both occur freely).
        obs::emit(bus_, obs::EventKind::kDispatch, now_, id, proc,
                  -1.0);  // WRR has no per-quantum release to measure from
        if (prev_proc_task_[proc] != id) {
          ++metrics_.context_switches;
          obs::emit(bus_, obs::EventKind::kContextSwitch, now_, id, proc);
        }
        if (last_proc_[id] != kNoProc && last_proc_[id] != proc) {
          ++metrics_.migrations;
          obs::emit(bus_, obs::EventKind::kMigration, now_, id, proc,
                    static_cast<double>(last_proc_[id]));
        }
        last_proc_[id] = proc;
        ++served;
      }
      cur = (cur + 1) % n;
      ++inspected;
    }
    // A task served in the previous slot with budget left that was not
    // served now was preempted by the rotation.
    for (TaskId id = 0; id < n; ++id) {
      if (prev_sched_[id] && !cur_sched_[id] && budget_[id] > 0) {
        ++metrics_.preemptions;
        obs::emit(bus_, obs::EventKind::kPreemption, now_, id, kNoProc,
                  -1.0);  // rotation preemptions are not attributable
      }
    }
    std::swap(prev_sched_, cur_sched_);
    std::swap(prev_proc_task_, cur_proc_task_);
    ++metrics_.slots;
    ++metrics_.scheduling_points;
    obs::emit(bus_, obs::EventKind::kSchedInvoke, now_);
    metrics_.busy_quanta += static_cast<std::uint64_t>(served);
    metrics_.idle_quanta += static_cast<std::uint64_t>(config_.processors - served);
    obs::emit(bus_, obs::EventKind::kSlotEnd, now_, kNoTask, kNoProc,
              static_cast<double>(served));
    ++now_;
    for (TaskId id = 0; id < n; ++id) {
      const Task& t = tasks_[id];
      Rational l = lag(t.execution, t.period, now_, allocated_[id]);
      if (l < Rational(0)) l = -l;
      if (max_abs_lag_ < l) max_abs_lag_ = l;
      if (bus_ != nullptr && config_.lag_sample_every > 0 &&
          now_ % config_.lag_sample_every == 0) {
        bus_->emit(obs::EventKind::kLagSample, now_, id, kNoProc,
                   lag(t.execution, t.period, now_, allocated_[id]).to_double());
      }
    }
  }
}

}  // namespace pfair
