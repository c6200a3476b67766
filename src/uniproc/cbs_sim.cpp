#include "uniproc/cbs_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pfair {

CbsSimulator::CbsSimulator(std::vector<UniTask> hard_tasks, CbsConfig config)
    : hard_(std::move(hard_tasks)),
      hard_next_release_(hard_.size(), 0),
      hard_live_(hard_.size(), 0) {
  servers_.reserve(config.servers.size());
  for (CbsServerSpec& spec : config.servers) {
    assert(spec.budget > 0 && spec.period > 0 && spec.budget <= spec.period);
    assert(std::is_sorted(spec.jobs.begin(), spec.jobs.end(),
                          [](const AperiodicJob& a, const AperiodicJob& b) {
                            return a.arrival < b.arrival;
                          }));
    Server s;
    s.spec = std::move(spec);
    servers_.push_back(std::move(s));
  }
}

bool CbsSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.execution, spec.period};
  if (!t.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  hard_.push_back(t);
  hard_next_release_.push_back(now_);
  hard_live_.push_back(0);
  ++metrics_.tasks_admitted;
  return true;
}

void CbsSimulator::arrivals_and_releases(Time t) {
  for (std::uint32_t i = 0; i < hard_.size(); ++i) {
    while (hard_next_release_[i] <= t) {
      // Implicit deadline: a live predecessor at its release has missed.
      if (hard_live_[i] > 0) {
        metrics_.record_miss(hard_next_release_[i]);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, hard_next_release_[i], i, 0);
      }
      hard_ready_.push_back(
          HardJob{i, hard_next_release_[i] + hard_[i].period, hard_[i].execution});
      ++metrics_.jobs_released;
      ++hard_live_[i];
      obs::emit(bus_, obs::EventKind::kJobRelease, hard_next_release_[i], i, 0,
                static_cast<double>(hard_next_release_[i] + hard_[i].period));
      hard_next_release_[i] += hard_[i].period;
    }
  }
  for (Server& s : servers_) {
    while (s.next_job < s.spec.jobs.size() && s.spec.jobs[s.next_job].arrival <= t) {
      const AperiodicJob& job = s.spec.jobs[s.next_job];
      if (!s.active) {
        // CBS admission for an idle server: reuse (c_s, d_s) only if the
        // pair is still bandwidth-consistent, else replenish.
        // Condition: c_s >= (d_s - r) * Q / T  ->  reset.
        if (s.budget * s.spec.period >= (s.deadline - t) * s.spec.budget) {
          s.budget = s.spec.budget;
          s.deadline = t + s.spec.period;
        }
        s.active = true;
        s.head_remaining = job.execution;
      } else {
        s.queued.push_back(job.execution);
      }
      s.backlog += job.execution;
      ++s.next_job;
    }
  }
}

Time CbsSimulator::next_event_after(Time t) const {
  Time next = std::numeric_limits<Time>::max();
  for (const Time r : hard_next_release_) next = std::min(next, r);
  for (const Server& s : servers_) {
    if (s.next_job < s.spec.jobs.size())
      next = std::min(next, s.spec.jobs[s.next_job].arrival);
  }
  if (next <= t) next = t + 1;  // safety: always advance
  return next;
}

void CbsSimulator::run_until(Time until) {
  while (now_ < until) {
    arrivals_and_releases(now_);
    ++metrics_.scheduling_points;
    obs::emit(bus_, obs::EventKind::kSchedInvoke, now_);

    // EDF over hard jobs and active servers (small systems: scans).
    HardJob* hard_pick = nullptr;
    for (HardJob& j : hard_ready_) {
      if (j.remaining > 0 && (hard_pick == nullptr || j.deadline < hard_pick->deadline))
        hard_pick = &j;
    }
    Server* server_pick = nullptr;
    for (Server& s : servers_) {
      if (s.active && (server_pick == nullptr || s.deadline < server_pick->deadline))
        server_pick = &s;
    }

    const Time next_ev = next_event_after(now_);
    const Time slice_end = std::min(next_ev, until);

    if (hard_pick == nullptr && server_pick == nullptr) {
      now_ = slice_end;  // idle
      continue;
    }

    const bool serve_hard =
        server_pick == nullptr ||
        (hard_pick != nullptr && hard_pick->deadline <= server_pick->deadline);

    if (serve_hard) {
      const Time run = std::min<Time>(slice_end - now_, hard_pick->remaining);
      obs::emit(bus_, obs::EventKind::kExecSlice, now_, hard_pick->task, 0,
                static_cast<double>(run));
      hard_pick->remaining -= run;
      now_ += run;
      if (hard_pick->remaining == 0) {
        ++metrics_.jobs_completed;
        // value = -1: response times are not tracked by this simulator.
        obs::emit(bus_, obs::EventKind::kJobComplete, now_, hard_pick->task, 0, -1.0);
        --hard_live_[hard_pick->task];
        hard_ready_.erase(hard_ready_.begin() + (hard_pick - hard_ready_.data()));
      }
      continue;
    }

    Server& s = *server_pick;
    const TaskId server_id = static_cast<TaskId>(server_pick - servers_.data());
    const Time run = std::min<Time>({slice_end - now_, s.head_remaining, s.budget});
    obs::emit(bus_, obs::EventKind::kServedSlice, now_, server_id, 0,
              static_cast<double>(run));
    s.head_remaining -= run;
    s.backlog -= run;
    s.budget -= run;
    s.work_done += run;
    metrics_.served_work += run;
    now_ += run;
    if (s.head_remaining == 0 && s.backlog >= 0) {
      ++metrics_.served_jobs_completed;
      obs::emit(bus_, obs::EventKind::kServedJobComplete, now_, server_id, 0);
      if (!s.queued.empty()) {
        s.head_remaining = s.queued.front();
        s.queued.erase(s.queued.begin());
      } else {
        s.active = false;
      }
    }
    if (s.budget == 0) {
      // Budget exhausted: replenish and postpone (the CBS rule that
      // pushes overruns into future reserved capacity).
      s.budget = s.spec.budget;
      s.deadline += s.spec.period;
      ++metrics_.deadline_postponements;
      obs::emit(bus_, obs::EventKind::kBudgetPostpone, now_, server_id, 0,
                static_cast<double>(s.deadline));
    }
  }
}

}  // namespace pfair
