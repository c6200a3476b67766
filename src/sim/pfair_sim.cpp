#include "sim/pfair_sim.h"

#include <algorithm>
#include <cassert>

#include "core/lag.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "util/math.h"

namespace pfair {

PfairSimulator::PfairSimulator(PfairConfig config)
    : config_(config), ready_(config.algorithm) {
  assert(config_.processors >= 1);
  live_processors_ = config_.processors;
  prev_slot_tasks_.assign(static_cast<std::size_t>(live_processors_), kNoTask);
}

bool PfairSimulator::admit(const engine::TaskSpec& spec) {
  const obs::prof::ProfScope prof(obs::prof::Phase::kAdmit, now_);
  if (!spec.valid()) {
    ++metrics_.tasks_rejected;
    return false;
  }
  add_task(make_task(spec.execution, spec.period, TaskKind::kPeriodic, spec.name));
  ++metrics_.tasks_admitted;
  return true;
}

TaskId PfairSimulator::add_task(const Task& t, std::vector<Time> arrivals) {
  assert(t.valid());
  const TaskId id = static_cast<TaskId>(tasks_.size());
  TaskRuntime rt;
  rt.spec = t;
  rt.active = true;
  rt.offset = now_ + t.phase;  // asynchronous release: windows shift by the phase
  rt.join_time = now_;
  rt.arrivals = std::move(arrivals);
  rt.cursor.reset(t.execution, t.period, 1);
  tasks_.push_back(std::move(rt));
  weight_sum_.add(t.execution, t.period);
  enqueue_next_subtask(id, now_);
  if (bus_ != nullptr)  // the reduced weight costs a gcd: only when observed
    bus_->emit(obs::EventKind::kTaskJoin, now_, id, kNoProc, t.weight().to_double());
  return id;
}

TaskId PfairSimulator::add_supertask(const SupertaskSpec& spec, ProcId bound_proc) {
  Task server = make_task(spec.execution, spec.period, TaskKind::kPeriodic,
                          spec.name.empty() ? "S" : spec.name);
  const TaskId id = add_task(server);
  tasks_[id].is_supertask = true;
  tasks_[id].super_index = static_cast<std::int32_t>(supertasks_.size());
  if (bound_proc != kNoProc) {
    assert(bound_proc < static_cast<ProcId>(live_processors_));
#ifndef NDEBUG
    for (const TaskRuntime& other : tasks_)
      assert(other.bound_proc != bound_proc || &other == &tasks_[id]);
#endif
    tasks_[id].bound_proc = bound_proc;
    ++bound_count_;
  }
  SupertaskRuntime srt;
  srt.owner = id;
  for (const Task& c : spec.components) {
    ComponentRuntime cr;
    cr.e = c.execution;
    cr.p = c.period;
    cr.next_release = now_;
    srt.components.push_back(cr);
  }
  supertasks_.push_back(std::move(srt));
  return id;
}

void PfairSimulator::add_processor_event(ProcessorEvent ev) {
  assert(ev.at >= now_ && ev.processors >= 0);
  // One O(log n) probe + O(n) insert into the unconsumed suffix instead
  // of re-sorting it wholesale on every registration.  upper_bound keeps
  // equal-time events in insertion order, so the last one registered for
  // a slot wins — the order the apply loop in simulate_slot relies on.
  const auto pos = std::upper_bound(
      proc_events_.begin() + static_cast<std::ptrdiff_t>(next_proc_event_),
      proc_events_.end(), ev,
      [](const ProcessorEvent& a, const ProcessorEvent& b) { return a.at < b.at; });
  proc_events_.insert(pos, ev);
}

std::optional<TaskId> PfairSimulator::join(const Task& t) {
  const obs::prof::ProfScope prof(obs::prof::Phase::kAdmit, now_);
  // Departures whose rule time has arrived free their weight before the
  // admission check (run_until(T) leaves departures at exactly T
  // unprocessed, since slot T has not been simulated yet).
  if (!pending_departures_.empty()) process_pending_departures(now_);
  // Eq. (2): the join is admitted while the total stays <= M.
  if (weight_sum_.with(Weight{t.execution, t.period}).against(live_processors_) !=
      WeightSum::Side::kWithin) {
    ++metrics_.tasks_rejected;
    return std::nullopt;
  }
  ++metrics_.tasks_admitted;
  return add_task(t);
}

std::optional<TaskId> PfairSimulator::join(const engine::TaskSpec& spec) {
  if (!spec.valid()) {
    ++metrics_.tasks_rejected;
    return std::nullopt;
  }
  return join(make_task(spec.execution, spec.period, TaskKind::kPeriodic, spec.name));
}

Time PfairSimulator::earliest_leave(TaskId id) const {
  if (id >= tasks_.size() || !tasks_[id].active) return -1;
  const TaskRuntime& rt = tasks_[id];
  if (rt.allocated == 0) return now_;
  return earliest_leave_time(rt.spec.execution, rt.spec.period, rt.last_sched_index, rt.offset);
}

void PfairSimulator::force_leave(TaskId id) {
  TaskRuntime& rt = tasks_[id];
  if (!rt.active) return;
  remove_from_queues(id);
  rt.active = false;
  uncount(rt);
  obs::emit(bus_, obs::EventKind::kTaskLeave, now_, id);
  // Cancel any in-flight departure/reweight so the task cannot be
  // resurrected when its switch-over time arrives.
  rt.leave_at = -1;
  rt.pending_e = 0;
  rt.pending_p = 0;
}

std::optional<Time> PfairSimulator::request_leave(TaskId id) {
  if (id >= tasks_.size()) return std::nullopt;
  TaskRuntime& rt = tasks_[id];
  if (!rt.active) return std::nullopt;
  if (rt.leave_at >= 0) {
    // Already departing, or switching weight at leave_at.  A leave turns
    // that switch-over into a departure at the same time; the weight
    // counted until then stays as it is.
    if (rt.pending_e > 0) rt.pending_e = -rt.pending_e;
    return rt.leave_at;
  }
  const Time freed = std::max(now_, earliest_leave(id));
  remove_from_queues(id);  // stops executing immediately, freezing the rule
  rt.leave_at = freed;
  rt.pending_e = 0;
  rt.pending_p = 0;
  if (freed <= now_) {
    rt.active = false;
    weight_sum_.sub(rt.spec.execution, rt.spec.period);
    rt.leave_at = -1;
    obs::emit(bus_, obs::EventKind::kTaskLeave, now_, id);
    return now_;
  }
  pending_departures_.push_back(id);
  return freed;
}

std::optional<Time> PfairSimulator::request_reweight(TaskId id, const engine::TaskSpec& spec) {
  if (!spec.valid()) return std::nullopt;
  return request_reweight(id, spec.execution, spec.period);
}

std::optional<Time> PfairSimulator::request_reweight(TaskId id, std::int64_t new_e,
                                                     std::int64_t new_p) {
  if (id >= tasks_.size()) return std::nullopt;
  // As in join(): a switch-over or departure due now applies first.
  if (!pending_departures_.empty()) process_pending_departures(now_);
  TaskRuntime& rt = tasks_[id];
  if (!rt.active || rt.leave_at >= 0) return std::nullopt;
  // Until the switch-over the heavier of the old and new weight stays
  // accounted, so no join can take capacity the switch-over needs;
  // admission only needs the exchanged total to fit.
  if (weight_sum_.with(Weight{new_e, new_p}, Weight{rt.spec.execution, rt.spec.period})
          .against(live_processors_) != WeightSum::Side::kWithin)
    return std::nullopt;
  const Time freed = std::max(now_, earliest_leave(id));
  remove_from_queues(id);
  if (freed <= now_) {
    restart_with_weight(id, new_e, new_p, now_);  // switch-over is immediate
    return now_;
  }
  rt.leave_at = freed;
  rt.pending_e = new_e;
  rt.pending_p = new_p;
  weight_sum_.sub(rt.spec.execution, rt.spec.period);
  const Weight held = counted_weight(rt);
  weight_sum_.add(held.e, held.p);
  pending_departures_.push_back(id);
  return freed;
}

void PfairSimulator::process_pending_departures(Time t) {
  // Rare path: only runs while some departure is pending.
  for (std::size_t k = 0; k < pending_departures_.size();) {
    TaskRuntime& rt = tasks_[pending_departures_[k]];
    if (!rt.active) {  // force-left while departing: drop the stale entry
      pending_departures_[k] = pending_departures_.back();
      pending_departures_.pop_back();
      continue;
    }
    if (rt.leave_at < 0 || rt.leave_at > t) {
      ++k;
      continue;
    }
    if (rt.pending_e > 0) {
      // Reweight: restart with the new weight at the switch-over time
      // (observed as a leave immediately followed by a re-join).
      restart_with_weight(pending_departures_[k], rt.pending_e, rt.pending_p, t);
    } else {
      rt.active = false;
      uncount(rt);
      rt.leave_at = -1;
      rt.pending_e = 0;
      rt.pending_p = 0;
      obs::emit(bus_, obs::EventKind::kTaskLeave, t, pending_departures_[k]);
    }
    pending_departures_[k] = pending_departures_.back();
    pending_departures_.pop_back();
  }
}

void PfairSimulator::restart_with_weight(TaskId id, std::int64_t e, std::int64_t p, Time t) {
  TaskRuntime& rt = tasks_[id];
  obs::emit(bus_, obs::EventKind::kTaskLeave, t, id);
  uncount(rt);
  rt.leave_at = -1;
  rt.pending_e = 0;
  rt.pending_p = 0;
  rt.spec.execution = e;
  rt.spec.period = p;
  weight_sum_.add(e, p);
  rt.next_index = 1;
  rt.cursor.reset(e, p, 1);
  rt.last_sched_index = 0;
  rt.job_open = false;
  rt.offset = t;
  rt.allocated = 0;
  enqueue_next_subtask(id, t);
  if (bus_ != nullptr)
    bus_->emit(obs::EventKind::kTaskJoin, t, id, kNoProc, rt.spec.weight().to_double());
}

Weight PfairSimulator::counted_weight(const TaskRuntime& rt) {
  const std::int64_t e = rt.pending_e < 0 ? -rt.pending_e : rt.pending_e;
  if (e > 0 && ratio_less(rt.spec.execution, rt.spec.period, e, rt.pending_p))
    return Weight{e, rt.pending_p};
  return Weight{rt.spec.execution, rt.spec.period};
}

void PfairSimulator::uncount(const TaskRuntime& rt) {
  const Weight w = counted_weight(rt);
  weight_sum_.sub(w.e, w.p);
}

WeightSum PfairSimulator::recompute_active_weight() const {
  WeightSum sum;
  for (const TaskRuntime& rt : tasks_) {
    if (!rt.active) continue;
    const Weight w = counted_weight(rt);
    sum.add(w.e, w.p);
  }
  return sum;
}

Rational PfairSimulator::task_lag(TaskId id) const {
  const TaskRuntime& rt = tasks_[id];
  return lag(rt.spec.execution, rt.spec.period, now_ - rt.offset, rt.allocated);
}

std::vector<std::string> PfairSimulator::task_names() const {
  std::vector<std::string> names;
  names.reserve(tasks_.size());
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const std::string& n = tasks_[id].spec.name;
    names.push_back(n.empty() ? "T" + std::to_string(id) : n);
  }
  return names;
}

std::uint64_t PfairSimulator::component_miss_count(TaskId id, std::size_t component) const {
  const TaskRuntime& rt = tasks_[id];
  assert(rt.is_supertask);
  return supertasks_[static_cast<std::size_t>(rt.super_index)].components[component].misses;
}

Time PfairSimulator::eligibility_time(TaskId id, SubtaskIndex i, Time prev_slot) const {
  const TaskRuntime& rt = tasks_[id];
  const WindowCursor& cursor = rt.cursor;
  assert(cursor.index == i);
  const Time earliest = prev_slot + 1;
  const Time release = rt.offset + cursor.rel;
  switch (rt.spec.kind) {
    case TaskKind::kPeriodic:
      return std::max(release, earliest);
    case TaskKind::kEarlyRelease: {
      // Early release applies within a job only; a job's first subtask
      // still waits for the job release (= its Pfair release).
      const bool first_of_job = cursor.idx_in_job == 1;
      return first_of_job ? std::max(release, earliest) : earliest;
    }
    case TaskKind::kIntraSporadic: {
      const std::size_t idx = static_cast<std::size_t>(i - 1);
      if (idx < rt.arrivals.size()) {
        const Time arrival = rt.arrivals[idx];
        // Early arrival: eligible at arrival (deadline unchanged).
        // Late arrival: the caller shifted offset so release == arrival.
        return std::max(std::min(arrival, release), earliest);
      }
      return std::max(release, earliest);
    }
  }
  return std::max(release, earliest);
}

void PfairSimulator::enqueue_next_subtask(TaskId id, Time earliest_slot) {
  TaskRuntime& rt = tasks_[id];
  const WindowCursor& cursor = rt.cursor;
  const SubtaskIndex i = rt.next_index;
  assert(cursor.index == i);
  // IS late arrivals shift the remaining window chain: enlarge the offset
  // so the subtask's Pfair release coincides with its arrival.
  if (rt.spec.kind == TaskKind::kIntraSporadic) {
    const std::size_t idx = static_cast<std::size_t>(i - 1);
    if (idx < rt.arrivals.size()) {
      const Time base_release = rt.offset + cursor.rel;
      if (rt.arrivals[idx] > base_release) rt.offset += rt.arrivals[idx] - base_release;
    }
  }
  const Time eligible = eligibility_time(id, i, earliest_slot - 1);
  // Build the ref once, here, in the ready queue's per-task slot, from
  // the cursor's division-free window values; the release/selection
  // paths read it unchanged.  Everything the ref depends on (e, p,
  // offset, alg) is invariant until the subtask leaves the queues — any
  // mutation goes through remove_from_queues + a fresh enqueue.
  const std::int64_t e = rt.spec.execution;
  const std::int64_t p = rt.spec.period;
  SubtaskRef& ref = ready_.pending(id);
  ref.task = id;
  ref.index = i;
  ref.e = e;
  ref.p = p;
  ref.offset = rt.offset;
  ref.release = rt.offset + cursor.rel;
  ref.deadline = rt.offset + cursor.deadline();
  ref.b = cursor.b();
  // Light tasks keep group_dl = 0: the comparators treat zero as "no
  // group deadline".  Group deadlines repeat every job, so the cursor's
  // job-relative index keeps every product at most p².
  const Time gdl =
      is_heavy(e, p) ? cursor.job_rel + group_deadline(e, p, cursor.idx_in_job) : 0;
  ref.group_dl = gdl == 0 ? 0 : rt.offset + gdl;
  pack_subtask_ref(ref, config_.algorithm);
#ifndef NDEBUG
  {
    const SubtaskRef check = make_subtask_ref(id, e, p, i, rt.offset, config_.algorithm);
    assert(check.release == ref.release);
    assert(check.deadline == ref.deadline);
    assert(check.b == ref.b);
    assert(check.group_dl == ref.group_dl);
    assert(check.key == ref.key && check.key_alg == ref.key_alg);
  }
#endif
  rt.miss_counted = false;
  if (eligible <= now_) {
    ready_.push(id);
  } else {
    rt.calendar_when = eligible;
    ++calendar_live_;
    wheel_.push(eligible, now_, id);
  }
}

void PfairSimulator::remove_from_queues(TaskId id) {
  TaskRuntime& rt = tasks_[id];
  if (ready_.contains(id)) ready_.erase(id);
  if (rt.calendar_when >= 0) {
    // Lazy wheel erase: the abandoned bucket entry no longer matches
    // calendar_when and is dropped whenever its bucket next drains.
    rt.calendar_when = -1;
    --calendar_live_;
  }
}

void PfairSimulator::release_eligible(Time t) {
  if (calendar_live_ == 0) return;
  wheel_.drain_due(t, [&](TaskId id) {
    TaskRuntime& rt = tasks_[id];
    if (rt.calendar_when != t) return;  // stale entry (erased / re-targeted)
    rt.calendar_when = -1;
    --calendar_live_;
    if (!rt.active) return;
    ready_.push(id);
  });
}

void PfairSimulator::detect_misses(Time t) {
  // Entries with deadline <= t sit at the top of the queue (every
  // priority rule orders by deadline first).  Pop them one at a time in
  // priority order (the obs event order is part of the simulator's
  // contract), count each miss once, and either drop the subtask or
  // requeue it for late execution.  A queued entry is always the task's
  // pending ref, unchanged, so the requeue just queues the task again.
  requeue_.clear();
  while (!ready_.empty() && ready_.min_deadline() <= t) {
    const TaskId id = ready_.top();
    ready_.erase(id);
    TaskRuntime& rt = tasks_[id];
    if (!rt.miss_counted) {
      rt.miss_counted = true;
      metrics_.record_miss(t);
      obs::emit(bus_, obs::EventKind::kDeadlineMiss, t, id);
    }
    if (config_.miss_policy == MissPolicy::kDrop) {
      ++rt.next_index;
      rt.cursor.advance();
      enqueue_next_subtask(id, t);
    } else {
      requeue_.push_back(id);
    }
  }
  for (const TaskId id : requeue_) ready_.push(id);
}

void PfairSimulator::dispatch_supertask_quantum(TaskRuntime& rt, Time t) {
  SupertaskRuntime& srt = supertasks_[static_cast<std::size_t>(rt.super_index)];
  // Internal EDF over released, incomplete component jobs.
  ComponentRuntime* best = nullptr;
  Time best_deadline = 0;
  for (ComponentRuntime& c : srt.components) {
    for (const auto& job : c.jobs) {
      if (job.second > 0) {
        if (best == nullptr || job.first < best_deadline) {
          best = &c;
          best_deadline = job.first;
        }
        break;  // jobs are oldest-first; only the head matters for EDF
      }
    }
  }
  if (best == nullptr) return;  // no pending component work; quantum wasted
  const auto chosen =
      static_cast<std::int32_t>(best - srt.components.data());
  if (srt.last_component >= 0 && srt.last_component != chosen) {
    ++metrics_.component_switches;
    obs::emit(bus_, obs::EventKind::kComponentSwitch, t, srt.owner, kNoProc,
              static_cast<double>(chosen));
  }
  srt.last_component = chosen;
  for (auto& job : best->jobs) {
    if (job.second > 0) {
      --job.second;
      break;
    }
  }
  // Drop fully executed leading jobs.
  while (!best->jobs.empty() && best->jobs.front().second == 0) {
    best->jobs.erase(best->jobs.begin());
    best->miss_counted_for_head = false;
  }
}

void PfairSimulator::check_lags(Time t_next) {
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const TaskRuntime& rt = tasks_[id];
    if (!rt.active || rt.is_supertask) continue;
    if (rt.offset != 0 || rt.spec.kind != TaskKind::kPeriodic) continue;
    if (!lag_within_pfair_bounds(rt.spec.execution, rt.spec.period, t_next, rt.allocated)) {
      ++metrics_.lag_violations;
      obs::emit(bus_, obs::EventKind::kLagViolation, t_next, id);
    }
  }
}

void PfairSimulator::simulate_slot() {
  const Time t = now_;

  // 1. Processor events (faults / repairs).
  while (next_proc_event_ < proc_events_.size() && proc_events_[next_proc_event_].at <= t) {
    live_processors_ = proc_events_[next_proc_event_].processors;
    ++next_proc_event_;
  }

  // 1b. Orderly departures / reweights whose capacity frees now.
  if (!pending_departures_.empty()) process_pending_departures(t);

  obs::emit(bus_, obs::EventKind::kSlotBegin, t, kNoTask, kNoProc,
            static_cast<double>(std::max(live_processors_, 0)));

  // 2. Releases, 2b. supertask component job releases + miss detection.
  // Release processing is part of scheduling overhead in the paper's
  // accounting ("moving a newly-arrived or preempted task to the ready
  // queue"), so it is included in the measured time.
  {
    const obs::prof::ProfScope prof(obs::prof::Phase::kRelease, t);
    release_eligible(t);
  }
  obs::emit(bus_, obs::EventKind::kOverheadNs, t);
  for (SupertaskRuntime& srt : supertasks_) {
    for (ComponentRuntime& c : srt.components) {
      while (c.next_release <= t) {
        c.jobs.emplace_back(c.next_release + c.p, c.e);
        c.next_release += c.p;
      }
      for (auto& job : c.jobs) {
        if (job.second > 0 && job.first <= t) {
          // Count each job's miss once: mark by negating the deadline is
          // too clever; use the head flag for the common head-job case
          // and tolerate at-most-once-per-slot counting for others.
          if (&job == &c.jobs.front()) {
            if (!c.miss_counted_for_head) {
              c.miss_counted_for_head = true;
              ++c.misses;
              metrics_.record_component_miss(t);
              obs::emit(bus_, obs::EventKind::kComponentMiss, t, srt.owner, kNoProc,
                        static_cast<double>(&c - srt.components.data()));
            }
          }
          break;
        }
      }
    }
  }

  // 3. Deadline misses among queued subtasks.
  {
    const obs::prof::ProfScope prof(obs::prof::Phase::kMissSweep, t);
    detect_misses(t);
  }

  // 4. Scheduler invocation: take the M highest-priority subtasks in one
  //    pass over the ready queue, record what the assignment and
  //    accounting passes need, and advance each task to its next
  //    subtask (whose eligibility is at least t + 1, so it goes to the
  //    release calendar).
  {
    const obs::prof::ProfScope prof_select(obs::prof::Phase::kSelect, t);
    ready_.take_top(static_cast<std::size_t>(std::max(live_processors_, 0)), selected_);
    picked_.clear();
    for (const TaskId id : selected_) {
      TaskRuntime& rt = tasks_[id];
      picked_.push_back(Pick{id, rt.last_proc, ready_.ref(id).release,
                             static_cast<std::uint8_t>(rt.last_sched_slot == t - 1), 0});
      rt.last_sched_index = rt.next_index;
      rt.job_open = !rt.cursor.last_of_job();
      ++rt.next_index;
      rt.cursor.advance();
      ++rt.allocated;
      enqueue_next_subtask(id, t + 1);
    }

    ++metrics_.scheduling_points;
    obs::emit(bus_, obs::EventKind::kSchedInvoke, t);
  }

  // 5. Processor assignment with affinity.  assign_ maps processor ->
  // index into picked_ (-1 = idle) so every later lookup (task id,
  // dispatch latency) is a direct picked_ access; all scratch lives in
  // reused members, so the kernel allocates nothing at steady state.
  // The kAssign span covers assignment plus the per-slot accounting
  // below it (steps 5-6) — everything after the scheduler invocation.
  const obs::prof::ProfScope prof_assign(obs::prof::Phase::kAssign, t);
  const std::size_t m = static_cast<std::size_t>(std::max(live_processors_, 0));
  constexpr std::int32_t kIdle = -1;
  assign_.assign(m, kIdle);
  // Pass 0: bound tasks (supertask binding) always take their fixed
  // processor; at most one task binds to any processor, so no conflict.
  // Skipped entirely when nothing is bound (the common case).
  if (bound_count_ > 0) {
    for (std::size_t k = 0; k < picked_.size(); ++k) {
      TaskRuntime& rt = tasks_[picked_[k].task];
      if (rt.bound_proc != kNoProc && rt.bound_proc < m) {
        assert(assign_[rt.bound_proc] == kIdle);
        assign_[rt.bound_proc] = static_cast<std::int32_t>(k);
        picked_[k].placed = 1;
      }
    }
  }
  if (config_.affinity) {
    // Pass 1: tasks that ran in slot t-1 keep their processor.  (A
    // last_proc of kNoProc is never below m.)
    for (std::size_t k = 0; k < picked_.size(); ++k) {
      Pick& pk = picked_[k];
      if (pk.placed == 0 && pk.ran_prev != 0 && pk.last_proc < m &&
          assign_[pk.last_proc] == kIdle) {
        assign_[pk.last_proc] = static_cast<std::int32_t>(k);
        pk.placed = 1;
      }
    }
    // Pass 2: idle-resuming tasks prefer their previous processor.
    for (std::size_t k = 0; k < picked_.size(); ++k) {
      Pick& pk = picked_[k];
      if (pk.placed == 0 && pk.last_proc < m && assign_[pk.last_proc] == kIdle) {
        assign_[pk.last_proc] = static_cast<std::int32_t>(k);
        pk.placed = 1;
      }
    }
  }
  // Pass 3: everything else takes the first free processor.
  {
    std::size_t next_free = 0;
    for (std::size_t k = 0; k < picked_.size(); ++k) {
      if (picked_[k].placed != 0) continue;
      while (next_free < m && assign_[next_free] != kIdle) ++next_free;
      assert(next_free < m);
      assign_[next_free] = static_cast<std::int32_t>(k);
    }
  }

  // 6. Metrics + state updates.  This pass also stamps last_sched_slot
  // and builds the next slot's processor map, so after it "ran in t-1
  // and not now" is last_sched_slot == t - 1.
  if (config_.record_trace) trace_.begin_slot(m);
  next_slot_tasks_.assign(m, kNoTask);
  for (std::size_t proc = 0; proc < m; ++proc) {
    const std::int32_t ki = assign_[proc];
    if (ki == kIdle) continue;
    const Pick& pk = picked_[static_cast<std::size_t>(ki)];
    const TaskId id = pk.task;
    TaskRuntime& rt = tasks_[id];
    const ProcId old_proc = pk.last_proc;
    if (bus_ != nullptr) {
      // Dispatch latency: slots between the subtask's pseudo-release and
      // this quantum.
      const double latency = static_cast<double>(t - pk.release);
      bus_->emit(obs::EventKind::kDispatch, t, id, static_cast<ProcId>(proc), latency);
    }
    if (proc < prev_slot_tasks_.size() && prev_slot_tasks_[proc] != id) {
      ++metrics_.context_switches;
      obs::emit(bus_, obs::EventKind::kContextSwitch, t, id, static_cast<ProcId>(proc));
    }
    if (old_proc != kNoProc && old_proc != static_cast<ProcId>(proc)) {
      ++metrics_.migrations;
      obs::emit(bus_, obs::EventKind::kMigration, t, id, static_cast<ProcId>(proc),
                static_cast<double>(old_proc));
    }
    rt.last_proc = static_cast<ProcId>(proc);
    rt.last_sched_slot = t;
    next_slot_tasks_[proc] = id;
    if (config_.record_trace) trace_.record(static_cast<ProcId>(proc), id);
    if (rt.is_supertask) dispatch_supertask_quantum(rt, t);
    // Job completion bookkeeping: the scheduled subtask was the last of
    // its job (the cursor, already advanced by the scheduler pass,
    // wrapped to a new job).
    if (!rt.job_open) {
      ++metrics_.jobs_completed;
      // Response time of the completed job (the paper motivates ERfair
      // with improved response times; measured here for the ablation).
      // The cursor's job_rel is the *next* job's relative release; the
      // completed job released one period earlier.
      const Time release = rt.offset + rt.cursor.job_rel - rt.spec.period;
      metrics_.response_time.add(static_cast<double>(t + 1 - release));
      obs::emit(bus_, obs::EventKind::kJobComplete, t, id, static_cast<ProcId>(proc),
                static_cast<double>(t + 1 - release));
      if (rt.cur_job_preemptions > rt.max_job_preemptions)
        rt.max_job_preemptions = rt.cur_job_preemptions;
      rt.cur_job_preemptions = 0;
    }
  }
  // Preemptions: ran in t-1 with its job open, not running now.  Every
  // task running now was stamped last_sched_slot = t above, so "not
  // running now" is one field test instead of an O(M) scan.
  for (const TaskId id : prev_slot_tasks_) {
    if (id == kNoTask) continue;
    TaskRuntime& rt = tasks_[id];
    if (rt.active && rt.last_sched_slot == t - 1 && rt.job_open) {
      ++metrics_.preemptions;
      ++rt.cur_job_preemptions;
      if (bus_ != nullptr) {
        // Attribute the preemption to whoever took the victim's processor.
        double preemptor = -1.0;
        if (rt.last_proc != kNoProc && rt.last_proc < m && assign_[rt.last_proc] != kIdle)
          preemptor =
              static_cast<double>(picked_[static_cast<std::size_t>(assign_[rt.last_proc])].task);
        bus_->emit(obs::EventKind::kPreemption, t, id, rt.last_proc, preemptor);
      }
    }
  }
  std::swap(prev_slot_tasks_, next_slot_tasks_);

  metrics_.busy_quanta += picked_.size();
  metrics_.idle_quanta += m - picked_.size();
  ++metrics_.slots;
  if (obs::prof::enabled()) {
    static obs::Counter& slots = obs::MetricsRegistry::global().counter("sim.slots");
    slots.add();
  }
  last_slot_allocated_ = !picked_.empty();
  obs::emit(bus_, obs::EventKind::kSlotEnd, t, kNoTask, kNoProc,
            static_cast<double>(picked_.size()));

  if (config_.check_lags) check_lags(t + 1);

  if (bus_ != nullptr && config_.lag_sample_every > 0 &&
      (t + 1) % config_.lag_sample_every == 0) {
    // Per-task lag timeline at the slot boundary t+1 (after this slot's
    // allocations took effect).
    for (TaskId id = 0; id < tasks_.size(); ++id) {
      const TaskRuntime& rt = tasks_[id];
      if (!rt.active) continue;
      const auto l = lag(rt.spec.execution, rt.spec.period, t + 1 - rt.offset, rt.allocated);
      bus_->emit(obs::EventKind::kLagSample, t + 1, id, kNoProc, l.to_double());
    }
  }
}

Time PfairSimulator::fast_forward_target(Time until) const {
  // Eligibility: a slot may be skipped only when the per-slot kernel
  // would provably (a) schedule nothing and (b) produce no observable
  // per-slot effect beyond bulk-accountable idle metrics.  Anything
  // that needs per-slot work disables the jump:
  //   - an attached observer (kSlotBegin/kSlotEnd/etc. per slot),
  //   - per-slot lag checking,
  //   - supertasks (component jobs release and miss on their own clock),
  //   - pending orderly departures (their switch-over must fire on time),
  //   - a non-empty ready queue (something would be scheduled),
  //   - an allocation in the immediately preceding slot (its preemption
  //     accounting can still fire one slot later).
  // The jump then stops at the next release-calendar entry or processor
  // event, whichever comes first.
  if (last_slot_allocated_) return now_;
  if (bus_ != nullptr || config_.check_lags) return now_;
  if (!supertasks_.empty() || !pending_departures_.empty()) return now_;
  Time target = until;
  if (next_proc_event_ < proc_events_.size())
    target = std::min(target, proc_events_[next_proc_event_].at);
  if (!ready_.empty()) return now_;
  if (calendar_live_ > 0) {
    const Time ev = wheel_.next_event(now_, target, [this](TaskId id, Time when) {
      return tasks_[id].calendar_when == when;
    });
    target = std::min(target, ev);
  }
  return std::max(target, now_);
}

void PfairSimulator::account_idle_slots(Time count) {
  const std::size_t m = static_cast<std::size_t>(std::max(live_processors_, 0));
  if (obs::prof::enabled()) {
    // Registry mirror of the fast-forward metrics: traces never contain
    // FF (an attached bus disables it), so the registry is how a
    // profiled run reports FF effectiveness (pfair_trace report
    // --registry / pfair_perf snapshot).
    static obs::Counter& ff =
        obs::MetricsRegistry::global().counter("sim.fast_forwarded_slots");
    static obs::Counter& jumps = obs::MetricsRegistry::global().counter("sim.ff_jumps");
    ff.add(static_cast<std::uint64_t>(count));
    jumps.add();
  }
  metrics_.slots += static_cast<std::uint64_t>(count);
  metrics_.idle_quanta += static_cast<std::uint64_t>(count) * m;
  metrics_.scheduling_points += static_cast<std::uint64_t>(count);
  metrics_.fast_forwarded_slots += static_cast<std::uint64_t>(count);
  if (config_.record_trace) trace_.idle_slots(m, static_cast<std::size_t>(count));
  // What one simulated idle slot would leave behind for the next slot's
  // context-switch / preemption accounting.
  prev_slot_tasks_.assign(m, kNoTask);
  last_slot_allocated_ = false;
}

void PfairSimulator::run_until(Time until) {
  while (now_ < until) {
    if (config_.idle_fast_forward) {
      const Time target = fast_forward_target(until);
      if (target > now_) {
        account_idle_slots(target - now_);
        now_ = target;
        continue;
      }
    }
    simulate_slot();
    ++now_;
  }
}

}  // namespace pfair
