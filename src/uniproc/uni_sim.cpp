#include "uniproc/uni_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/prof.h"

namespace pfair {

UniprocSimulator::UniprocSimulator(std::vector<UniTask> tasks, UniSimConfig config)
    : tasks_(std::move(tasks)),
      config_(config),
      live_jobs_(tasks_.size(), 0),
      ready_(JobLess{config.algorithm}) {
  for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
    assert(tasks_[i].valid());
    calendar_.push(Release{0, i});
  }
}

bool UniprocSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.execution, spec.period};
  if (!t.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(tasks_.size());
  tasks_.push_back(t);
  live_jobs_.push_back(0);
  calendar_.push(Release{now_, id});
  ++metrics_.tasks_admitted;
  return true;
}

Time UniprocSimulator::next_release_time() const {
  return calendar_.empty() ? std::numeric_limits<Time>::max() : calendar_.top().when;
}

void UniprocSimulator::release_jobs(Time t) {
  // Release processing counts toward scheduling overhead (inserting a
  // newly arrived job into the ready queue), matching the paper.  The
  // calendar heap plays the role of per-task event timers: only tasks
  // that actually release are touched.
  const obs::prof::ProfScope prof(obs::prof::Phase::kRelease, t);
  while (!calendar_.empty() && calendar_.top().when <= t) {
    const Release rel = calendar_.pop();
    const std::uint32_t i = rel.task;
    // Implicit deadlines: the predecessor job's deadline is exactly
    // this release time, so an incomplete predecessor has missed.
    // (Detecting misses here — rather than at completion — also catches
    // jobs that starve and never complete.)
    if (live_jobs_[i] > 0) {
      metrics_.record_miss(rel.when);
      obs::emit(bus_, obs::EventKind::kDeadlineMiss, rel.when, i, proc_);
    }
    Job j;
    j.task = i;
    j.deadline = rel.when + tasks_[i].period;
    j.remaining = tasks_[i].execution;
    j.period = tasks_[i].period;
    ready_.push(j);
    calendar_.push(Release{rel.when + tasks_[i].period, i});
    ++metrics_.jobs_released;
    ++live_jobs_[i];
    obs::emit(bus_, obs::EventKind::kJobRelease, rel.when, i, proc_,
              static_cast<double>(j.deadline));
  }
  obs::emit(bus_, obs::EventKind::kOverheadNs, t, kNoTask, proc_);
}

void UniprocSimulator::invoke_scheduler(Time t) {
  const obs::prof::ProfScope prof(obs::prof::Phase::kSelect, t);

  // Preemption requires strictly higher priority (a deadline/period tie
  // never preempts under EDF/RM).
  const auto strictly_higher = [&](const Job& a, const Job& b) {
    if (config_.algorithm == UniAlgorithm::kEDF) return a.deadline < b.deadline;
    // RM assigns *distinct* fixed priorities: period ties resolve to a
    // strict total order by task index (matching rm_response_time), so
    // an equal-period, lower-index job does preempt.
    if (a.period != b.period) return a.period < b.period;
    return a.task < b.task;
  };
  if (has_running_) {
    if (!ready_.empty() && strictly_higher(ready_.top(), running_)) {
      // Preempt: running job returns to the ready queue.
      Job preempted = running_;
      running_ = ready_.pop();
      ready_.push(preempted);
      ++metrics_.preemptions;
      ++metrics_.context_switches;
      last_on_cpu_ = running_.task;
      obs::emit(bus_, obs::EventKind::kPreemption, t, preempted.task, proc_,
                static_cast<double>(running_.task));
      obs::emit(bus_, obs::EventKind::kContextSwitch, t, running_.task, proc_);
    }
  } else if (!ready_.empty()) {
    running_ = ready_.pop();
    has_running_ = true;
    if (running_.task != last_on_cpu_) {
      ++metrics_.context_switches;
      obs::emit(bus_, obs::EventKind::kContextSwitch, t, running_.task, proc_);
    }
    last_on_cpu_ = running_.task;
  }

  ++metrics_.scheduling_points;
  obs::emit(bus_, obs::EventKind::kSchedInvoke, t, kNoTask, proc_);
}

void UniprocSimulator::complete_running(Time t) {
  assert(has_running_ && running_.remaining == 0);
  ++metrics_.jobs_completed;
  // value = -1: Metrics::response_time is not tracked by this simulator,
  // and the counter sink must reproduce that.
  obs::emit(bus_, obs::EventKind::kJobComplete, t, running_.task, proc_, -1.0);
  // Misses are counted at the deadline (successor release) in
  // release_jobs, which also catches starved jobs; nothing to do here.
  --live_jobs_[running_.task];
  has_running_ = false;
}

void UniprocSimulator::run_until(Time until) {
  while (now_ < until) {
    release_jobs(now_);
    invoke_scheduler(now_);
    const Time next_rel = next_release_time();
    if (!has_running_) {
      // Idle until the next release.
      now_ = std::min(next_rel, until);
      continue;
    }
    const Time completion = now_ + running_.remaining;
    const Time advance_to = std::min({completion, next_rel, until});
    if (advance_to > now_)
      obs::emit(bus_, obs::EventKind::kExecSlice, now_, running_.task, proc_,
                static_cast<double>(advance_to - now_));
    running_.remaining -= advance_to - now_;
    now_ = advance_to;
    // Completion is a scheduling point too: the loop top (or the next
    // run_until call, when now_ == until) releases and picks at this
    // instant, so each decision instant invokes the scheduler once.
    if (running_.remaining == 0) complete_running(now_);
  }
}

}  // namespace pfair
