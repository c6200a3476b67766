#include "overhead/calibrate.h"

#include <gtest/gtest.h>

#include "obs/prof.h"
#include "overhead/inflation.h"
#include "sim/pfair_sim.h"

namespace pfair {
namespace {

CalibrationConfig quick() {
  CalibrationConfig c;
  c.horizon = 600;
  c.sets = 1;
  c.seed = 7;
  return c;
}

TEST(Calibrate, ProducesPositiveCostsEverywhere) {
  const SchedCostModel m = calibrate_sched_costs(quick());
  for (const double n : SchedCostModel::kTaskCounts) {
    EXPECT_GT(m.edf_us(n), 0.0) << "n=" << n;
    for (const double procs : SchedCostModel::kProcCounts) {
      EXPECT_GT(m.pd2_us(n, static_cast<int>(procs)), 0.0)
          << "n=" << n << " m=" << procs;
    }
  }
}

TEST(Calibrate, CostsStayWellBelowTheQuantum) {
  // Eq. (3) only makes sense if the per-invocation cost is a small
  // fraction of the 1 ms quantum; calibration on any plausible host
  // lands orders of magnitude below it.
  const SchedCostModel m = calibrate_sched_costs(quick());
  EXPECT_LT(m.pd2_us(1000, 16), 100.0);
  EXPECT_LT(m.edf_us(1000), 100.0);
}

TEST(Calibrate, CalibratedModelDrivesEquationThree) {
  OverheadParams params;
  params.sched = calibrate_sched_costs(quick());
  const OhTask t{10000.0, 100000.0, 40.0};
  const Pd2Inflation inf = inflate_pd2(t, params, 100, 4);
  EXPECT_TRUE(inf.feasible);
  EXPECT_GT(inf.execution_us, t.execution_us);
  EXPECT_LE(inf.iterations, 5);
}

TEST(Calibrate, DeterministicForSameSeed) {
  const SchedCostModel a = calibrate_sched_costs(quick());
  const SchedCostModel b = calibrate_sched_costs(quick());
  // Timing is inherently noisy; determinism applies to the *workloads*,
  // so values must be positive and within an order of magnitude of each
  // other (the real property: no structural divergence).
  for (const double n : {50.0, 500.0}) {
    EXPECT_GT(a.edf_us(n), 0.0);
    EXPECT_GT(b.edf_us(n), 0.0);
    EXPECT_LT(a.edf_us(n) / b.edf_us(n), 10.0);
    EXPECT_GT(a.edf_us(n) / b.edf_us(n), 0.1);
  }
}

TEST(Calibrate, InvocationCostsArePositive) {
  Rng rng(7);
  const std::vector<Task> one = fig2_taskset(rng, 30, 0.98);
  const std::vector<Task> four = fig2_taskset(rng, 30, 0.95 * 4.0);
  EXPECT_GT(edf_invocation_us(one, 20000), 0.0);
  EXPECT_GT(pd2_invocation_us(one, 1, 2000), 0.0);
  EXPECT_GT(pd2_invocation_us(four, 4, 2000), 0.0);
}

TEST(Calibrate, Pd2TimesEverySlotOfIdleRuns) {
  // Two light tasks on two processors leave long idle runs, which idle
  // fast-forward would skip untimed.
  const std::vector<Task> tasks = {make_task(1, 50), make_task(2, 97)};
  PfairConfig pc;
  pc.processors = 2;
  PfairSimulator ff(pc);
  for (const Task& t : tasks) ff.add_task(t);
  ff.run_until(1000);
  ASSERT_GT(ff.metrics().fast_forwarded_slots, 0u);

  obs::prof::reset();
  EXPECT_GT(pd2_invocation_us(tasks, 2, 1000), 0.0);
  EXPECT_EQ(obs::prof::collect_totals(obs::prof::Phase::kSelect).count, 1000u);
  EXPECT_EQ(obs::prof::collect_totals(obs::prof::Phase::kRelease).count, 1000u);
  obs::prof::reset();
}

}  // namespace
}  // namespace pfair
