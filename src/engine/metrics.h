// The one metrics struct shared by every simulator in the repo.
//
// The paper's argument rests on apples-to-apples comparison of PD2
// against EDF-FF and global EDF/RM under identical accounting (Sec. 4,
// Figs. 2-4).  Every simulator therefore reports into this single
// superset struct instead of a per-simulator one, so a comparison
// driver can read the same fields from any scheduler.
//
// Definitions follow the paper's accounting (Sec. 4):
//   - preemption: a task was scheduled in slot t-1, its current job is
//     incomplete, and it is not scheduled in slot t (whether it resumes
//     on the same or another processor — the cache analysis assumes a
//     cold cache either way);
//   - migration: a task runs in slot t on a different processor than its
//     previous quantum;
//   - context switch: a processor runs a different task in slot t than
//     in slot t-1 (switch-in accounting).
// Event-driven (job-level) simulators use the natural job analogues of
// the same definitions; fields that do not apply to a simulator stay at
// their zero defaults.
#pragma once

#include <cstdint>

#include "util/stats.h"
#include "util/types.h"

namespace pfair::engine {

struct Metrics {
  // --- admission accounting (all simulators) ---
  std::uint64_t tasks_admitted = 0;  ///< admit()/join() requests accepted
  std::uint64_t tasks_rejected = 0;  ///< admit()/join() requests refused
                                     ///< (invalid spec, capacity, bin-packing
                                     ///< failure, run already started)

  // --- quantum-driven accounting (PD2, WRR) ---
  std::uint64_t slots = 0;               ///< slots simulated
  std::uint64_t busy_quanta = 0;         ///< processor-quanta allocated
  std::uint64_t idle_quanta = 0;         ///< processor-quanta left idle
  std::uint64_t fast_forwarded_slots = 0;  ///< slots skipped by idle fast-forward
                                           ///< (subset of `slots`)

  // --- job accounting (all simulators) ---
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t component_misses = 0;    ///< supertask component job misses

  // --- scheduling events ---
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t component_switches = 0;  ///< supertask-internal EDF switches
  std::uint64_t scheduling_points = 0;   ///< distinct instants at which the
                                         ///< scheduler decided, each counted
                                         ///< once: per-quantum sims one per
                                         ///< slot (incl. fast-forwarded), BF
                                         ///< one per period boundary, RUN and
                                         ///< CBS one per event instant, the
                                         ///< uniprocessor (and each
                                         ///< partitioned) EDF/RM one per
                                         ///< release or completion instant —
                                         ///< the axis the BF/RUN papers
                                         ///< optimise
  std::uint64_t lag_violations = 0;      ///< only when lag checking enabled

  // --- server accounting (CBS) ---
  std::uint64_t served_jobs_completed = 0;
  std::int64_t served_work = 0;              ///< server execution time granted
  std::uint64_t deadline_postponements = 0;  ///< budget-exhaustion events

  Time first_miss_time = -1;   ///< -1 if no miss observed
  RunningStats response_time;  ///< per-job response times (slots)

  /// Records a deadline miss at time `t`, folding the first-miss
  /// sentinel handling that used to be re-implemented per simulator.
  void record_miss(Time t) noexcept {
    ++deadline_misses;
    note_miss_time(t);
  }

  /// Records a supertask component miss at time `t`.
  void record_component_miss(Time t) noexcept {
    ++component_misses;
    note_miss_time(t);
  }

  /// Updates first_miss_time only (for callers with bespoke counters).
  void note_miss_time(Time t) noexcept {
    if (first_miss_time < 0) first_miss_time = t;
  }

  [[nodiscard]] double utilization() const noexcept {
    const std::uint64_t cap = busy_quanta + idle_quanta;
    return cap > 0 ? static_cast<double>(busy_quanta) / static_cast<double>(cap) : 0.0;
  }

  /// Field-wise sum, for aggregating per-processor schedulers
  /// (partitioned systems).  first_miss_time takes the earliest miss.
  /// `slots` counts wall-clock slots, which the per-processor schedulers
  /// of one partitioned system share — so it takes the max, not the sum
  /// (summing would report P× the horizon on a P-processor system).
  void merge(const Metrics& o) noexcept {
    tasks_admitted += o.tasks_admitted;
    tasks_rejected += o.tasks_rejected;
    if (o.slots > slots) slots = o.slots;
    busy_quanta += o.busy_quanta;
    fast_forwarded_slots += o.fast_forwarded_slots;
    idle_quanta += o.idle_quanta;
    jobs_released += o.jobs_released;
    jobs_completed += o.jobs_completed;
    deadline_misses += o.deadline_misses;
    component_misses += o.component_misses;
    preemptions += o.preemptions;
    migrations += o.migrations;
    context_switches += o.context_switches;
    component_switches += o.component_switches;
    scheduling_points += o.scheduling_points;
    lag_violations += o.lag_violations;
    served_jobs_completed += o.served_jobs_completed;
    served_work += o.served_work;
    deadline_postponements += o.deadline_postponements;
    if (o.first_miss_time >= 0 &&
        (first_miss_time < 0 || o.first_miss_time < first_miss_time)) {
      first_miss_time = o.first_miss_time;
    }
    response_time.merge(o.response_time);
  }
};

}  // namespace pfair::engine
