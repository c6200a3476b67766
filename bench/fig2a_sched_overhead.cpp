// Fig. 2(a): average scheduling overhead per invocation of EDF and PD2
// on ONE processor, as a function of the number of tasks.
//
// Methodology mirrors the paper: for each task count N in {15, 30, 50,
// 75, 100, 250, 500, 750, 1000}, generate random task sets with total
// utilization at most one, schedule each with both algorithms (binary-
// heap ready queues), and report the mean cost of one scheduler
// invocation with a 99% confidence interval.  The cost of one
// invocation is release processing plus selection, read from the
// obs::prof phase timers (overhead/calibrate.h).
//
// Usage: fig2a_sched_overhead [--horizon=50000] [--trials=12] [--seed=1] [--json]
//
// Absolute microseconds depend on the host CPU (the paper used a
// 933 MHz machine); the claims to check are shape claims: both curves
// grow with N, PD2 grows faster but stays within a small constant
// factor (paper: < 8us at N = 1000, EDF-comparable for N <= 100).
#include <cstdio>

#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace pfair;
  using namespace pfair::bench;

  engine::ExperimentHarness h("fig2a_sched_overhead", argc, argv);
  const long long horizon = h.horizon(50000);
  const long long sets = h.trials(12);

  std::printf("# Fig 2(a): scheduling overhead of EDF and PD2 on one processor\n");
  std::printf("# horizon=%lld slots, %lld task sets per point, total util <= 1\n",
              horizon, sets);
  std::printf("# %6s %14s %12s %14s %12s %10s\n", "tasks", "edf_us", "edf_ci99",
              "pd2_us", "pd2_ci99", "ratio");

  Rng master(h.seed(1));
  for (const int n : {15, 30, 50, 75, 100, 250, 500, 750, 1000}) {
    RunningStats edf_us;
    RunningStats pd2_us;
    for (long long s = 0; s < sets; ++s) {
      Rng rng = master.fork(static_cast<std::uint64_t>(n) * 1000 +
                            static_cast<std::uint64_t>(s));
      const std::vector<Task> tasks = fig2_taskset(rng, static_cast<std::size_t>(n), 0.98);
      // EDF events are sparser than PD2's slots; longer horizon.
      edf_us.add(edf_invocation_us(tasks, horizon * 20));
      pd2_us.add(pd2_invocation_us(tasks, 1, horizon));
    }
    const double ratio = edf_us.mean() > 0.0 ? pd2_us.mean() / edf_us.mean() : 0.0;
    std::printf("  %6d %14.3f %12.3f %14.3f %12.3f %10.2f\n", n, edf_us.mean(),
                edf_us.ci99_halfwidth(), pd2_us.mean(), pd2_us.ci99_halfwidth(), ratio);
    h.add_row()
        .set("tasks", static_cast<long long>(n))
        .set("edf_us", edf_us)
        .set("pd2_us", pd2_us)
        .set("ratio", ratio);
  }
  std::printf("# paper shape: both increase with N; PD2 < 8us at N=1000 (933MHz),\n");
  std::printf("# PD2 comparable to EDF for N <= 100.\n");
  return h.finish();
}
