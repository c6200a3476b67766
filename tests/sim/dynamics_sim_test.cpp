// Dynamic joins / leaves / reweighting in a running system (Sec. 2
// "Dynamic task systems" and Sec. 5.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "sim/pfair_sim.h"
#include "workload/generator.h"

namespace pfair {
namespace {

/// The value a WeightSum holds for the Rational `r`.
WeightSum::Fraction fraction(const Rational& r) { return {r.num(), r.den()}; }

TEST(Dynamics, JoinRejectedWhenCapacityExceeded) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  sim.add_task(make_task(2, 3));
  sim.run_until(5);
  EXPECT_FALSE(sim.join(make_task(1, 2)).has_value());  // 2/3 + 1/2 > 1
  EXPECT_TRUE(sim.join(make_task(1, 3)).has_value());   // 2/3 + 1/3 = 1
}

TEST(Dynamics, MidstreamJoinMeetsAllItsDeadlines) {
  PfairConfig sc;
  sc.processors = 2;
  PfairSimulator sim(sc);
  sim.add_task(make_task(1, 2));
  sim.add_task(make_task(2, 5));
  sim.run_until(7);  // join at an "odd" time
  const auto id = sim.join(make_task(3, 4));
  ASSERT_TRUE(id.has_value());
  sim.run_until(400);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  // The joiner receives its fluid share from its join time onward:
  // 3/4 * (400 - 7) = 294.75, and Pfair lag bounds pin the integer
  // allocation to within one quantum of that.
  EXPECT_GE(sim.allocated(*id), 294);
  EXPECT_LE(sim.allocated(*id), 295);
}

TEST(Dynamics, LegalLeaveThenRejoinCannotOverclaim) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 2));
  sim.add_task(make_task(1, 2));
  sim.run_until(10);
  // Orderly departure (the task stops executing now; its weight frees
  // at the rule-mandated time), then rejoin; no deadline is ever
  // missed.
  const Time freed = sim.request_leave(a).value();
  EXPECT_GE(freed, 10);
  sim.run_until(freed);
  const auto rejoin = sim.join(make_task(1, 2));
  ASSERT_TRUE(rejoin.has_value());
  sim.run_until(freed + 200);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, RequestLeaveFreesCapacityOnlyAtRuleTime) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 2));  // heavy (weight 1/2)
  sim.add_task(make_task(1, 4));
  sim.run_until(3);
  const Time freed = sim.request_leave(a).value();
  EXPECT_GT(freed, sim.now());
  // Until `freed`, the departing weight still counts against admission.
  EXPECT_FALSE(sim.join(make_task(1, 2)).has_value());
  sim.run_until(freed);
  EXPECT_TRUE(sim.join(make_task(1, 2)).has_value());
  sim.run_until(freed + 100);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, LeaveBlockedBeforeEarliestLeaveTime) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 10));
  sim.run_until(1);  // subtask 1 ran at slot 0; d = 10
  const Time earliest = sim.earliest_leave(a);
  EXPECT_GT(earliest, sim.now());
  // The departure is granted at once, but the weight frees only at the
  // rule time: a task that needs the whole processor cannot join before.
  const auto freed = sim.request_leave(a);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(*freed, earliest);
  EXPECT_FALSE(sim.join(make_task(1, 1)).has_value());
  sim.run_until(earliest);
  EXPECT_TRUE(sim.join(make_task(1, 1)).has_value());
  sim.run_until(earliest + 20);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, PrematureLeaveAndRejoinCanCauseMisses) {
  // The hazard the leave rule prevents (paper: a task with negative lag
  // leaving and re-joining immediately effectively runs above its
  // rate).  Force-leave a task right after it executed ahead of its
  // rate, re-join, and repeat: in a fully loaded system this overclaims
  // and a competitor must eventually miss.
  // Cheat: a 4/5 task that leaves the moment it is ahead of its fluid
  // rate and re-joins immediately with fresh windows.  Its restarted
  // subtasks (deadline now + 2, b = 1) out-prioritise the two honest
  // 1/10 tasks (deadline 10, b = 0) in every slot up to and including
  // slot 8, leaving only slot 9 for the two honest subtasks — one of
  // them misses at time 10.
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  TaskId cheat = sim.add_task(make_task(4, 5));
  sim.add_task(make_task(1, 10));
  sim.add_task(make_task(1, 10));
  bool missed = false;
  for (int round = 0; round < 15 && !missed; ++round) {
    sim.run_until(sim.now() + 1);
    if (sim.allocated(cheat) > 0 && sim.task_lag(cheat) < Rational(0)) {
      sim.force_leave(cheat);
      const auto next = sim.join(make_task(4, 5));
      ASSERT_TRUE(next.has_value());
      cheat = *next;
    }
    missed = sim.metrics().deadline_misses > 0;
  }
  EXPECT_TRUE(missed);
}

TEST(Dynamics, ForceLeaveCancelsPendingReweight) {
  // A task force-removed while a reweight is in flight must stay gone —
  // the switch-over must not resurrect it.
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 2));
  sim.run_until(5);
  const auto switch_at = sim.request_reweight(a, 3, 4);
  ASSERT_TRUE(switch_at.has_value());
  ASSERT_GT(*switch_at, sim.now());
  sim.force_leave(a);
  const std::int64_t frozen = sim.allocated(a);
  sim.run_until(*switch_at + 50);
  EXPECT_EQ(sim.allocated(a), frozen);       // never ran again
  EXPECT_EQ(sim.active_weight().fraction(), fraction(Rational(0)));
  // The freed capacity is immediately reusable.
  EXPECT_TRUE(sim.join(make_task(1, 1)).has_value());
  sim.run_until(sim.now() + 50);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, HeavierPendingReweightReservesItsWeight) {
  // From the request until the switch-over the heavier weight counts, so
  // a join that fits only beside the old weight is refused.
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 2));
  sim.run_until(1);
  const auto switch_at = sim.request_reweight(a, 3, 4);
  ASSERT_TRUE(switch_at.has_value());
  ASSERT_GT(*switch_at, sim.now());
  EXPECT_EQ(sim.active_weight().fraction(), fraction(Rational(3, 4)));
  EXPECT_EQ(sim.recompute_active_weight().fraction(), fraction(Rational(3, 4)));
  EXPECT_FALSE(sim.join(make_task(1, 2)).has_value());  // 3/4 + 1/2 > 1
  EXPECT_TRUE(sim.join(make_task(1, 4)).has_value());   // 3/4 + 1/4 = 1
  sim.run_until(*switch_at + 200);
  EXPECT_EQ(sim.active_weight().fraction(), fraction(Rational(1)));
  EXPECT_EQ(sim.recompute_active_weight().fraction(), fraction(Rational(1)));
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, LeaveDuringPendingReweightDepartsAtTheSwitchOver) {
  // A leave while a reweight waits for its switch-over departs then: the
  // task never runs again, and until then the heavier of its two
  // weights stays counted.
  for (const auto& [e, p] : {std::pair<std::int64_t, std::int64_t>{1, 4}, {3, 4}}) {
    PfairConfig sc;
    sc.processors = 1;
    PfairSimulator sim(sc);
    const TaskId a = sim.add_task(make_task(1, 2));
    sim.run_until(1);
    const auto switch_at = sim.request_reweight(a, e, p);
    ASSERT_TRUE(switch_at.has_value());
    ASSERT_GT(*switch_at, sim.now());
    EXPECT_EQ(sim.request_leave(a), switch_at);
    const Rational held = std::max(Rational(1, 2), Rational(e, p));
    EXPECT_EQ(sim.active_weight().fraction(), fraction(held)) << e << "/" << p;
    EXPECT_EQ(sim.recompute_active_weight().fraction(), fraction(held)) << e << "/" << p;
    const std::int64_t frozen = sim.allocated(a);
    sim.run_until(*switch_at + 50);
    EXPECT_EQ(sim.allocated(a), frozen) << e << "/" << p;  // never ran again
    EXPECT_EQ(sim.active_weight().fraction(), fraction(Rational(0))) << e << "/" << p;
    EXPECT_EQ(sim.recompute_active_weight().fraction(), fraction(Rational(0))) << e << "/" << p;
    EXPECT_FALSE(sim.request_leave(a).has_value()) << e << "/" << p;
    EXPECT_TRUE(sim.join(make_task(1, 1)).has_value()) << e << "/" << p;
    sim.run_until(sim.now() + 50);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << e << "/" << p;
  }
}

TEST(Dynamics, ImmediateReweightSwitchOverAppliesAtOnce) {
  // A task that has not run yet may leave at once, so its reweight
  // switches over immediately: the new weight is accounted now and the
  // task keeps being scheduled at that weight.
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  sim.run_until(3);
  const TaskId a = sim.join(make_task(1, 2)).value();
  ASSERT_EQ(sim.allocated(a), 0);
  const auto switch_at = sim.request_reweight(a, 1, 4);
  ASSERT_TRUE(switch_at.has_value());
  EXPECT_EQ(*switch_at, sim.now());
  EXPECT_EQ(sim.active_weight().fraction(), fraction(Rational(1, 4)));
  EXPECT_EQ(sim.recompute_active_weight().fraction(), fraction(Rational(1, 4)));
  sim.run_until(43);
  EXPECT_EQ(sim.allocated(a), 10);  // 40 slots at weight 1/4
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
}

TEST(Dynamics, ReweightingTakesEffect) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 4));
  sim.run_until(sim.earliest_leave(a));
  const Time t0 = sim.now();
  // The leave rule already holds, so the switch-over is immediate.
  const auto switch_at = sim.request_reweight(a, 3, 4);
  ASSERT_TRUE(switch_at.has_value());
  EXPECT_EQ(*switch_at, t0);
  sim.run_until(t0 + 400);
  EXPECT_EQ(sim.metrics().deadline_misses, 0u);
  // Post-reweight allocation rate is 3/4.
  EXPECT_EQ(sim.allocated(a), (400 / 4) * 3);
}

TEST(Dynamics, ReweightRejectedWhenItWouldOverload) {
  PfairConfig sc;
  sc.processors = 1;
  PfairSimulator sim(sc);
  const TaskId a = sim.add_task(make_task(1, 4));
  sim.add_task(make_task(1, 2));
  sim.run_until(sim.earliest_leave(a));
  EXPECT_FALSE(sim.request_reweight(a, 3, 4).has_value());  // 3/4 + 1/2 > 1
  const auto switch_at = sim.request_reweight(a, 1, 2);      // 1/2 + 1/2 = 1
  ASSERT_TRUE(switch_at.has_value());
  EXPECT_EQ(*switch_at, sim.now());
}

TEST(Dynamics, ManyRandomJoinsAndLegalLeavesNeverMiss) {
  Rng rng(0xd1ce);
  for (int trial = 0; trial < 6; ++trial) {
    Rng trial_rng = rng.fork(static_cast<std::uint64_t>(trial));
    PfairConfig sc;
    sc.processors = 3;
    PfairSimulator sim(sc);
    std::vector<TaskId> live;
    for (Time epoch = 0; epoch < 20; ++epoch) {
      sim.run_until(sim.now() + trial_rng.uniform_int(1, 15));
      // Try one random join.
      const std::int64_t p = trial_rng.uniform_int(1, 12);
      const std::int64_t e = trial_rng.uniform_int(1, p);
      const auto id = sim.join(make_task(e, p));
      if (id.has_value()) live.push_back(*id);
      // Try one random orderly leave: the task stops now, and its
      // weight frees when the leave rules allow.
      if (!live.empty() && trial_rng.uniform_int(0, 1) == 0) {
        const std::size_t k = static_cast<std::size_t>(
            trial_rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(sim.request_leave(live[k]).has_value());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
    sim.run_until(sim.now() + 100);
    EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pfair
