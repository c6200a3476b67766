// CounterSink: engine::Metrics reconstructed from the event stream.
//
// The counter sink is the observability backend for the repo's unified
// metrics: every counter in engine::Metrics has a defining event kind,
// and folding the stream through this sink must reproduce a simulator's
// own `metrics()` *exactly* (bit-identical doubles — the sink adds in
// emission order, which simulators guarantee matches their own
// accumulation order).  Tests pin that equivalence for all six
// simulator stacks, which turns the event instrumentation itself into a
// verified artifact: a counter mismatch means an instrumentation point
// is missing, duplicated, or misplaced.
#pragma once

#include "engine/metrics.h"
#include "obs/sink.h"

namespace pfair::obs {

class CounterSink : public Sink {
 public:
  void on_event(const Event& e) override {
    engine::Metrics& m = metrics_;
    switch (e.kind) {
      case EventKind::kSlotBegin:
        ++m.slots;
        slot_processors_ = e.value;
        break;
      case EventKind::kSlotEnd:
        m.busy_quanta += static_cast<std::uint64_t>(e.value);
        m.idle_quanta += static_cast<std::uint64_t>(slot_processors_ - e.value);
        break;
      case EventKind::kDispatch:
      case EventKind::kExecSlice:
        break;  // placement detail; busy/idle comes from slot events
      case EventKind::kServedSlice:
        m.served_work += static_cast<std::int64_t>(e.value);
        break;
      case EventKind::kPreemption:
        ++m.preemptions;
        break;
      case EventKind::kMigration:
        ++m.migrations;
        break;
      case EventKind::kContextSwitch:
        ++m.context_switches;
        break;
      case EventKind::kComponentSwitch:
        ++m.component_switches;
        break;
      case EventKind::kJobRelease:
        ++m.jobs_released;
        break;
      case EventKind::kJobComplete:
        ++m.jobs_completed;
        if (e.value >= 0.0) m.response_time.add(e.value);
        break;
      case EventKind::kServedJobComplete:
        ++m.served_jobs_completed;
        break;
      case EventKind::kDeadlineMiss:
        ++m.deadline_misses;
        note_miss(e.time);
        break;
      case EventKind::kComponentMiss:
        ++m.component_misses;
        note_miss(e.time);
        break;
      case EventKind::kLagViolation:
        ++m.lag_violations;
        break;
      case EventKind::kLagSample:
        break;  // timeline data, not a counter
      case EventKind::kTaskJoin:
      case EventKind::kTaskLeave:
        break;  // membership events have no Metrics field
      case EventKind::kBudgetPostpone:
        ++m.deadline_postponements;
        break;
      case EventKind::kSchedInvoke:
        ++m.scheduling_points;
        break;
      case EventKind::kOverheadNs:
        break;  // release-processing marker; timings live in obs::prof
      case EventKind::kAdmitRequest:
        break;  // paired with the grant/reject below
      case EventKind::kAdmitGrant:
        ++m.tasks_admitted;
        break;
      case EventKind::kAdmitReject:
        ++m.tasks_rejected;
        break;
    }
  }

  [[nodiscard]] const engine::Metrics& metrics() const noexcept { return metrics_; }
  void reset() { metrics_ = engine::Metrics{}; }

 private:
  /// Earliest miss wins.  A partitioned ensemble replays its
  /// processors one after the other, so miss events do not arrive in
  /// global time order — unlike Metrics::record_miss, which may assume
  /// non-decreasing times within one simulator.
  void note_miss(Time t) noexcept {
    if (metrics_.first_miss_time < 0 || t < metrics_.first_miss_time)
      metrics_.first_miss_time = t;
  }

  engine::Metrics metrics_;
  double slot_processors_ = 0.0;  ///< live processors of the open slot
};

}  // namespace pfair::obs
