#include "sim/global_job_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pfair {

GlobalJobSimulator::GlobalJobSimulator(std::vector<UniTask> tasks, GlobalJobConfig config)
    : tasks_(std::move(tasks)),
      config_(config),
      next_release_(tasks_.size(), 0),
      live_jobs_(tasks_.size(), 0) {
  assert(config_.processors >= 1);
}

bool GlobalJobSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.execution, spec.period};
  if (!t.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  tasks_.push_back(t);
  next_release_.push_back(now_);
  live_jobs_.push_back(0);
  ++metrics_.tasks_admitted;
  return true;
}

bool GlobalJobSimulator::higher_priority(const Job& a, const Job& b) const {
  if (config_.algorithm == UniAlgorithm::kEDF && a.deadline != b.deadline)
    return a.deadline < b.deadline;
  // Ties (and RM) go by the task, not by when it arrived: (period,
  // execution), then index.  Tasks equal in both are interchangeable, so
  // the schedule, and exact_global_schedulable's verdict, depend only on
  // the multiset of tasks, never on admission order.
  const UniTask& ta = tasks_[a.task];
  const UniTask& tb = tasks_[b.task];
  if (ta.period != tb.period) return ta.period < tb.period;
  if (ta.execution != tb.execution) return ta.execution < tb.execution;
  return a.task < b.task;
}

void GlobalJobSimulator::release_jobs(Time t) {
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    while (next_release_[i] <= t) {
      // Implicit deadline = next release: a live predecessor missed.
      if (live_jobs_[i] > 0) {
        metrics_.record_miss(next_release_[i]);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, next_release_[i], i);
      }
      ready_.push_back(Job{i, next_release_[i] + tasks_[i].period, tasks_[i].execution,
                           kNoProc, false});
      ++metrics_.jobs_released;
      ++live_jobs_[i];
      obs::emit(bus_, obs::EventKind::kJobRelease, next_release_[i], i, kNoProc,
                static_cast<double>(next_release_[i] + tasks_[i].period));
      next_release_[i] += tasks_[i].period;
    }
  }
}

Time GlobalJobSimulator::next_release_time() const {
  Time best = std::numeric_limits<Time>::max();
  for (const Time r : next_release_) best = std::min(best, r);
  return best;
}

void GlobalJobSimulator::run_until(Time until) {
  while (now_ < until) {
    release_jobs(now_);

    // Select the M highest-priority incomplete jobs: one scheduling
    // point per selection.
    ++metrics_.scheduling_points;
    obs::emit(bus_, obs::EventKind::kSchedInvoke, now_);
    std::vector<Job*> order;
    order.reserve(ready_.size());
    for (Job& j : ready_) order.push_back(&j);
    std::sort(order.begin(), order.end(),
              [&](const Job* a, const Job* b) { return higher_priority(*a, *b); });
    const std::size_t running =
        std::min<std::size_t>(order.size(), static_cast<std::size_t>(config_.processors));

    // Preemption accounting: was running, still incomplete, now not.
    for (std::size_t k = running; k < order.size(); ++k) {
      if (order[k]->running_prev) {
        ++metrics_.preemptions;
        obs::emit(bus_, obs::EventKind::kPreemption, now_, order[k]->task,
                  order[k]->last_proc, -1.0);
      }
      order[k]->running_prev = false;
    }
    // Processor assignment with affinity among the selected jobs.
    std::vector<bool> proc_taken(static_cast<std::size_t>(config_.processors), false);
    std::vector<Job*> needs_proc;
    for (std::size_t k = 0; k < running; ++k) {
      Job* j = order[k];
      if (j->last_proc != kNoProc && !proc_taken[j->last_proc]) {
        proc_taken[j->last_proc] = true;
      } else {
        needs_proc.push_back(j);
      }
    }
    for (Job* j : needs_proc) {
      ProcId p = 0;
      while (proc_taken[p]) ++p;
      proc_taken[p] = true;
      if (j->last_proc != kNoProc && j->last_proc != p) {
        ++metrics_.migrations;
        obs::emit(bus_, obs::EventKind::kMigration, now_, j->task, p,
                  static_cast<double>(j->last_proc));
      }
      j->last_proc = p;
    }

    // Advance to the next event: release or earliest completion.
    Time advance_to = std::min(next_release_time(), until);
    for (std::size_t k = 0; k < running; ++k)
      advance_to = std::min(advance_to, now_ + order[k]->remaining);
    if (advance_to <= now_) advance_to = now_ + 1;  // safety
    const Time delta = advance_to - now_;

    for (std::size_t k = 0; k < running; ++k) {
      obs::emit(bus_, obs::EventKind::kExecSlice, now_, order[k]->task,
                order[k]->last_proc, static_cast<double>(delta));
      order[k]->remaining -= delta;
      order[k]->running_prev = true;
    }
    now_ = advance_to;

    // Retire completed jobs.
    for (std::size_t i = ready_.size(); i-- > 0;) {
      if (ready_[i].remaining == 0) {
        ++metrics_.jobs_completed;
        // value = -1: response times are not tracked by this simulator.
        obs::emit(bus_, obs::EventKind::kJobComplete, now_, ready_[i].task,
                  ready_[i].last_proc, -1.0);
        --live_jobs_[ready_[i].task];
        ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
}

}  // namespace pfair
