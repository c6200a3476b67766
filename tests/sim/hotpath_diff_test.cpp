// Hot-path equivalence suite: the perf machinery (idle fast-forward,
// incremental bookkeeping) must be invisible — byte-identical metrics
// and traces against the per-slot reference it shortcuts.  Packed
// priority keys against the legacy comparator chain are covered at the
// comparator level in tests/core/priority_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "obs/bus.h"
#include "qa/gen.h"
#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

/// Captures the full typed event stream for exact comparison.
class RecordingSink final : public obs::Sink {
 public:
  void on_event(const obs::Event& e) override { events_.push_back(e); }
  [[nodiscard]] const std::vector<obs::Event>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<obs::Event> events_;
};

struct RunResult {
  engine::Metrics metrics;
  ScheduleTrace trace;
  std::uint64_t ff_slots = 0;
};

/// Replays a fuzz case (including its dynamic join/leave script, in the
/// same order qa's oracle replay applies it) under one configuration.
RunResult run_case(const qa::FuzzCase& c, Algorithm alg, bool fast_forward,
                   MissPolicy policy) {
  PfairConfig cfg;
  cfg.processors = c.processors;
  cfg.algorithm = alg;
  cfg.record_trace = true;
  cfg.idle_fast_forward = fast_forward;
  cfg.miss_policy = policy;
  PfairSimulator sim(cfg);
  for (const Task& t : c.tasks.tasks()) {
    Task spec = t;
    spec.kind = c.kind;
    sim.add_task(spec);
  }
  std::size_t next_join = 0;
  std::size_t next_leave = 0;
  while (next_join < c.joins.size() || next_leave < c.leaves.size()) {
    const Time t_join = next_join < c.joins.size() ? c.joins[next_join].at : c.horizon;
    const Time t_leave =
        next_leave < c.leaves.size() ? c.leaves[next_leave].at : c.horizon;
    const Time at = std::min({t_join, t_leave, c.horizon});
    if (at >= c.horizon) break;
    sim.run_until(at);
    while (next_leave < c.leaves.size() && c.leaves[next_leave].at == at) {
      sim.request_leave(c.leaves[next_leave].task);
      ++next_leave;
    }
    while (next_join < c.joins.size() && c.joins[next_join].at == at) {
      Task spec = c.joins[next_join].task;
      spec.kind = c.kind;
      (void)sim.join(spec);
      ++next_join;
    }
  }
  sim.run_until(c.horizon);
  RunResult r;
  r.metrics = sim.metrics();
  r.trace = sim.trace();
  r.ff_slots = sim.fast_forwarded_slots();
  return r;
}

void expect_metrics_identical(const engine::Metrics& a, const engine::Metrics& b,
                              const std::string& what) {
  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.busy_quanta, b.busy_quanta) << what;
  EXPECT_EQ(a.idle_quanta, b.idle_quanta) << what;
  EXPECT_EQ(a.jobs_released, b.jobs_released) << what;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  EXPECT_EQ(a.component_misses, b.component_misses) << what;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.component_switches, b.component_switches) << what;
  EXPECT_EQ(a.scheduling_points, b.scheduling_points) << what;
  EXPECT_EQ(a.lag_violations, b.lag_violations) << what;
  EXPECT_EQ(a.first_miss_time, b.first_miss_time) << what;
  EXPECT_EQ(a.response_time.count(), b.response_time.count()) << what;
  // Response times are sums of exact small integers; the running-stat
  // accumulation order is identical, so even the doubles must match.
  EXPECT_EQ(a.response_time.mean(), b.response_time.mean()) << what;
  EXPECT_EQ(a.response_time.min(), b.response_time.min()) << what;
  EXPECT_EQ(a.response_time.max(), b.response_time.max()) << what;
}

void expect_traces_identical(const ScheduleTrace& a, const ScheduleTrace& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t)
    ASSERT_EQ(a[t].proc_to_task, b[t].proc_to_task) << what << " slot " << t;
}

// --- fast-forward vs the per-slot reference ----------------------------

/// Runs `c` with fast-forward on and expects metrics and trace identical
/// to the per-slot reference.  Returns the fast-forward run.
RunResult expect_fast_forward_invisible(const qa::FuzzCase& c, Algorithm alg,
                                        MissPolicy policy, const std::string& what) {
  const RunResult ref = run_case(c, alg, /*fast_forward=*/false, policy);
  RunResult ff = run_case(c, alg, /*fast_forward=*/true, policy);
  EXPECT_EQ(ref.ff_slots, 0u) << what;
  expect_metrics_identical(ff.metrics, ref.metrics, what);
  expect_traces_identical(ff.trace, ref.trace, what);
  return ff;
}

// Every generator profile x every subtask-priority algorithm, including
// the dynamic join/leave scripts: the fast-forward jump must never change
// what the per-slot kernel would have scheduled.
TEST(HotpathDiff, FastForwardMatchesPerSlotOnEveryProfileAndAlgorithm) {
  const Algorithm algs[] = {Algorithm::kPD2, Algorithm::kPF, Algorithm::kPD,
                            Algorithm::kEPDF};
  std::uint64_t ff_slots = 0;
  for (const qa::Profile profile : qa::all_profiles()) {
    qa::GenConfig gc;
    gc.only_profile = profile;
    gc.max_processors = 4;
    gc.max_tasks = 10;
    const qa::TaskSetGen gen(gc, /*seed=*/0x90a7 + static_cast<int>(profile));
    for (std::uint64_t index = 0; index < 3; ++index) {
      const qa::FuzzCase c = gen.make_case(index);
      for (const Algorithm alg : algs) {
        ff_slots += expect_fast_forward_invisible(c, alg, MissPolicy::kScheduleLate,
                                                  std::string(qa::profile_name(profile)) +
                                                      "/" + algorithm_name(alg) + "/case " +
                                                      std::to_string(index))
                        .ff_slots;
      }
    }
  }
  EXPECT_GT(ff_slots, 0u);  // the jump actually fired somewhere
}

// kDrop exercises the miss cascade (dropping a missed subtask can
// release an already-missed successor).
TEST(HotpathDiff, DropPolicyCascadeFastForwardMatchesPerSlot) {
  qa::GenConfig gc;
  gc.only_profile = qa::Profile::kHeavy;
  gc.max_processors = 3;
  gc.max_tasks = 8;
  const qa::TaskSetGen gen(gc, /*seed=*/0xd309);
  std::vector<qa::FuzzCase> cases;
  for (std::uint64_t index = 0; index < 4; ++index) cases.push_back(gen.make_case(index));
  // Feasible heavy sets rarely miss, so add an overloaded one (total
  // weight 137/60 on two processors) that misses under every rule.
  qa::FuzzCase overload;
  overload.processors = 2;
  overload.horizon = 240;
  overload.tasks.add(make_task(2, 3));
  overload.tasks.add(make_task(2, 3));
  overload.tasks.add(make_task(3, 4));
  overload.tasks.add(make_task(1, 5));
  cases.push_back(overload);
  std::uint64_t misses = 0;
  for (std::size_t index = 0; index < cases.size(); ++index) {
    const qa::FuzzCase& c = cases[index];
    for (const Algorithm alg : {Algorithm::kEPDF, Algorithm::kPD2}) {
      misses += expect_fast_forward_invisible(c, alg, MissPolicy::kDrop,
                                              std::string("drop/") + algorithm_name(alg) +
                                                  "/case " + std::to_string(index))
                    .metrics.deadline_misses;
    }
  }
  EXPECT_GT(misses, 0u);  // the cascade actually ran
}

// --- idle fast-forward ---------------------------------------------------

/// A sparse set whose schedule has long provably-idle stretches.
TaskSet sparse_set() {
  TaskSet set;
  set.add(make_task(1, 32));
  set.add(make_task(1, 48));
  set.add(make_task(2, 64));
  return set;
}

// Fast-forward on vs off, with the horizon split at every boundary: the
// jump must be invisible in metrics and trace no matter where run_until
// re-enters the loop, and it must actually fire on this workload.
TEST(HotpathDiff, FastForwardEquivalentAtEverySplitPoint) {
  constexpr Time kHorizon = 200;
  PfairConfig base;
  base.processors = 2;
  base.record_trace = true;

  PfairConfig no_ff = base;
  no_ff.idle_fast_forward = false;
  PfairSimulator ref(no_ff);
  const TaskSet sparse = sparse_set();
  for (const Task& t : sparse.tasks()) ref.add_task(t);
  ref.run_until(kHorizon);
  EXPECT_EQ(ref.fast_forwarded_slots(), 0u);

  for (Time split = 1; split < kHorizon; ++split) {
    PfairSimulator sim(base);
    for (const Task& t : sparse.tasks()) sim.add_task(t);
    sim.run_until(split);
    sim.run_until(kHorizon);
    expect_metrics_identical(sim.metrics(), ref.metrics(),
                             "split at " + std::to_string(split));
    expect_traces_identical(sim.trace(), ref.trace(),
                            "split at " + std::to_string(split));
    EXPECT_GT(sim.fast_forwarded_slots(), 0u) << "split at " << split;
  }
}

TEST(HotpathDiff, FastForwardAutoDisablesUnderObserver) {
  PfairConfig cfg;
  cfg.processors = 2;
  PfairSimulator sim(cfg);
  obs::EventBus bus;
  RecordingSink sink;
  bus.add_sink(&sink);
  sim.attach_observer(&bus);
  const TaskSet sparse = sparse_set();
  for (const Task& t : sparse.tasks()) sim.add_task(t);
  sim.run_until(200);
  // Every slot needs its kSlotBegin/kSlotEnd, so no slot may be skipped.
  EXPECT_EQ(sim.fast_forwarded_slots(), 0u);
  std::size_t slot_begins = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::EventKind::kSlotBegin) ++slot_begins;
  }
  EXPECT_EQ(slot_begins, 200u);
}

TEST(HotpathDiff, FastForwardAutoDisablesUnderSupertasks) {
  PfairConfig cfg;
  cfg.processors = 2;
  PfairSimulator sim(cfg);
  SupertaskSpec spec;
  spec.execution = 1;
  spec.period = 32;  // the server itself is sparse, but components tick
  spec.components.push_back(make_task(1, 8));
  sim.add_supertask(spec);
  sim.add_task(make_task(1, 32));
  sim.run_until(200);
  // Component jobs release and miss on their own clock, so every slot
  // must run even though the Pfair servers leave most slots idle.
  EXPECT_EQ(sim.fast_forwarded_slots(), 0u);
}

// A processor-bound server next to ordinary tasks: with fast-forward
// enabled the run must match the per-slot reference, component-miss
// accounting included.  (The name dates from when this workload was
// compared across slot kernels; the per-slot run is now the reference.)
TEST(HotpathDiff, ShardedSupertasksMatchLegacyKernel) {
  const auto bound_run = [](bool ff) {
    PfairConfig cfg;
    cfg.processors = 2;
    cfg.record_trace = true;
    cfg.idle_fast_forward = ff;
    PfairSimulator sim(cfg);
    SupertaskSpec spec;
    spec.execution = 2;
    spec.period = 5;
    spec.components.push_back(make_task(1, 4));
    spec.components.push_back(make_task(1, 8));
    sim.add_supertask(spec, /*bound_proc=*/0);
    sim.add_task(make_task(3, 7));
    sim.add_task(make_task(1, 3));
    sim.run_until(400);
    return std::make_pair(sim.metrics(), sim.trace());
  };
  const auto [ref_metrics, ref_trace] = bound_run(false);
  const auto [ff_metrics, ff_trace] = bound_run(true);
  expect_metrics_identical(ff_metrics, ref_metrics, "bound supertask");
  expect_traces_identical(ff_trace, ref_trace, "bound supertask");
}

TEST(HotpathDiff, FastForwardAutoDisablesDuringPendingDeparture) {
  PfairConfig cfg;
  cfg.processors = 1;
  PfairSimulator sim(cfg);
  const TaskId id = sim.add_task(make_task(3, 7));
  sim.add_task(make_task(1, 64));
  sim.run_until(2);
  const Time freed = sim.request_leave(id).value();
  ASSERT_GT(freed, sim.now());  // rule holds the departure open for a while
  const std::uint64_t before = sim.fast_forwarded_slots();
  sim.run_until(freed + 1);  // slot `freed` processes the switch-over
  // The switch-over must fire on time, so no slot up to it is skipped.
  EXPECT_EQ(sim.fast_forwarded_slots(), before);
  // The departing task's weight is gone once the rule time arrives.
  EXPECT_EQ(sim.active_weight(), Rational(1, 64));
}

TEST(HotpathDiff, FastForwardStopsAtProcessorEvents) {
  // A fault event sits in the middle of a long idle stretch; runs with
  // and without fast-forward must apply it at the same instant.
  auto run = [](bool ff) {
    PfairConfig cfg;
    cfg.processors = 2;
    cfg.record_trace = true;
    cfg.idle_fast_forward = ff;
    PfairSimulator sim(cfg);
    const TaskSet sparse = sparse_set();
    for (const Task& t : sparse.tasks()) sim.add_task(t);
    sim.add_processor_event({100, 0});  // total outage mid-idle
    sim.add_processor_event({130, 2});
    sim.run_until(300);
    if (ff) {
      EXPECT_GT(sim.fast_forwarded_slots(), 0u);
    }
    return std::make_pair(sim.metrics(), sim.trace());
  };
  const auto [ref_metrics, ref_trace] = run(false);
  const auto [ff_metrics, ff_trace] = run(true);
  expect_metrics_identical(ff_metrics, ref_metrics, "ff vs per-slot");
  expect_traces_identical(ff_trace, ref_trace, "ff vs per-slot");
}

// --- incremental bookkeeping regressions ---------------------------------

// add_processor_event keeps the unconsumed suffix sorted under
// interleaved "future then nearer-future" registrations, including ones
// made after earlier events were already consumed.
TEST(HotpathDiff, ProcessorEventsRegisteredOutOfOrderApplyInTimeOrder) {
  PfairConfig cfg;
  cfg.processors = 4;
  cfg.record_trace = true;

  PfairSimulator sorted_reg(cfg);
  PfairSimulator interleaved(cfg);
  Rng rng(0xabc1);
  const TaskSet set = generate_feasible_taskset(rng, 2, 8, 16, /*fill=*/true);
  for (const Task& t : set.tasks()) {
    sorted_reg.add_task(t);
    interleaved.add_task(t);
  }

  sorted_reg.add_processor_event({20, 3});
  sorted_reg.add_processor_event({40, 2});
  sorted_reg.add_processor_event({60, 4});
  sorted_reg.add_processor_event({80, 3});
  sorted_reg.add_processor_event({90, 4});

  // Same events, registered out of order and across a consumed prefix.
  interleaved.add_processor_event({60, 4});
  interleaved.add_processor_event({20, 3});
  interleaved.add_processor_event({40, 2});
  interleaved.run_until(30);  // consumes the t = 20 event
  interleaved.add_processor_event({90, 4});
  interleaved.add_processor_event({80, 3});  // before the already-queued 90

  sorted_reg.run_until(120);
  interleaved.run_until(120);
  expect_metrics_identical(interleaved.metrics(), sorted_reg.metrics(),
                           "out-of-order registration");
  expect_traces_identical(interleaved.trace(), sorted_reg.trace(),
                          "out-of-order registration");
}

// Equal-time events must keep registration order (last registered wins),
// exactly as the pre-insertion-sort behaviour.
TEST(HotpathDiff, ProcessorEventsAtEqualTimesKeepRegistrationOrder) {
  PfairConfig cfg;
  cfg.processors = 4;
  cfg.record_trace = true;
  PfairSimulator sim(cfg);
  sim.add_task(make_task(1, 2));
  sim.add_processor_event({10, 1});
  sim.add_processor_event({10, 3});  // registered later, same slot: wins
  sim.run_until(15);
  // The trace row width records the live processor count per slot.
  EXPECT_EQ(sim.trace()[9].proc_to_task.size(), 4u);
  EXPECT_EQ(sim.trace()[10].proc_to_task.size(), 3u);
}

// The cached active-weight sum must track the O(N) recomputation across
// a randomized legal join / leave / reweight / fault script.
TEST(HotpathDiff, ActiveWeightCacheMatchesRecomputeUnderRandomScript) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 4; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    PfairConfig cfg;
    cfg.processors = 3;
    PfairSimulator sim(cfg);
    std::vector<TaskId> live;
    for (int step = 0; step < 40; ++step) {
      sim.run_until(sim.now() + trial_rng.uniform_int(1, 15));
      switch (trial_rng.uniform_int(0, 3)) {
        case 0: {
          const auto id = sim.join(random_pfair_task(trial_rng, 12));
          if (id.has_value()) live.push_back(*id);
          break;
        }
        case 1: {
          if (live.empty()) break;
          const std::size_t k = static_cast<std::size_t>(
              trial_rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          sim.request_leave(live[k]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case 2: {
          if (live.empty()) break;
          const std::size_t k = static_cast<std::size_t>(
              trial_rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
          const std::int64_t p = trial_rng.uniform_int(1, 12);
          (void)sim.request_reweight(live[k], trial_rng.uniform_int(1, p), p);
          break;
        }
        case 3: {
          if (!live.empty() && trial_rng.uniform_int(0, 1) == 0) {
            sim.force_leave(live.back());
            live.pop_back();
          }
          break;
        }
      }
      ASSERT_EQ(sim.active_weight(), sim.recompute_active_weight())
          << "trial " << trial << " step " << step << " t = " << sim.now();
    }
  }
}

}  // namespace
}  // namespace pfair
