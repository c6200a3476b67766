// Fig. 2(b): average PD2 scheduling overhead per slot on 2, 4, 8 and 16
// processors, as a function of the number of tasks.
//
// PD2 makes all decisions sequentially on one processor, so its cost
// per invocation grows with the processor count (it must select up to M
// subtasks); partitioned schedulers escape this because each processor
// schedules independently.  Total task-set utilization scales with M
// (util <= 0.95 * M) as in the paper's setup.  The cost of one slot is
// release processing plus selection, read from the obs::prof phase
// timers (overhead/calibrate.h).
//
// Usage: fig2b_sched_overhead_mp [--horizon=30000] [--trials=8] [--seed=1] [--json]
#include <cstdio>

#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace pfair;
  using namespace pfair::bench;

  engine::ExperimentHarness h("fig2b_sched_overhead_mp", argc, argv);
  const long long horizon = h.horizon(30000);
  const long long sets = h.trials(8);

  std::printf("# Fig 2(b): scheduling overhead of PD2 for 2, 4, 8, 16 processors\n");
  std::printf("# horizon=%lld slots, %lld task sets per point\n", horizon, sets);
  std::printf("# %6s", "tasks");
  for (const int m : {2, 4, 8, 16}) std::printf(" %9s_us %8s_ci", std::to_string(m).c_str(), "99");
  std::printf("\n");

  Rng master(h.seed(1));
  for (const int n : {15, 30, 50, 75, 100, 250, 500, 750, 1000}) {
    std::printf("  %6d", n);
    auto& row = h.add_row();
    row.set("tasks", static_cast<long long>(n));
    for (const int m : {2, 4, 8, 16}) {
      RunningStats pd2_us;
      for (long long s = 0; s < sets; ++s) {
        Rng rng = master.fork(static_cast<std::uint64_t>(n) * 4096 +
                              static_cast<std::uint64_t>(m) * 64 +
                              static_cast<std::uint64_t>(s));
        const std::vector<Task> tasks =
            fig2_taskset(rng, static_cast<std::size_t>(n), 0.95 * static_cast<double>(m));
        pd2_us.add(pd2_invocation_us(tasks, m, horizon));
      }
      std::printf(" %12.3f %11.3f", pd2_us.mean(), pd2_us.ci99_halfwidth());
      row.set("m" + std::to_string(m) + "_us", pd2_us);
    }
    std::printf("\n");
  }
  std::printf("# paper shape: overhead increases with tasks and processors;\n");
  std::printf("# <= ~20us for 200 tasks even on 16 processors (933MHz).\n");
  return h.finish();
}
