// Sec.-1 motivation: the Dhall effect.  Global job-level EDF/RM can
// miss at utilizations that are an arbitrarily small fraction of the
// platform, while PD2 schedules every set with total weight <= M.
//
// Sweeps the Dhall construction (m light tasks (2, P) + one heavy
// (P, P+1)): the light jobs' earlier deadlines occupy every processor
// first, so the heavy job finishes at 2 + P > P + 1 and misses, even
// though the utilization beyond the one heavy task vanishes as P grows
// (util/m -> 1/m).  PD2 schedules every instance without a miss.
//
// Built on engine::compare_schedulers: one Dhall workload per row, the
// same three-spec list every time.
//
// Usage: sec1_dhall [--processors=4] [--json]
#include <cstdio>

#include "bench/fig_common.h"

int main(int argc, char** argv) {
  using namespace pfair;
  using namespace pfair::bench;

  engine::ExperimentHarness h("sec1_dhall", argc, argv);
  return h.run([&] {
    const int m = static_cast<int>(h.flag("processors", 4));

    std::printf("# Dhall effect on %d processors: m x (2, P) + 1 x (P, P+1)\n", m);
    std::printf("# %6s %12s %14s %12s %12s %12s\n", "P", "total_util", "util/m",
                "gEDF_miss", "gRM_miss", "PD2_miss");

    engine::SimulatorConfig edf;
    edf.set_processors(m);
    engine::SimulatorConfig rm = edf;
    rm.global_job.algorithm = UniAlgorithm::kRM;
    const std::vector<engine::SchedulerSpec> specs = {
        {"global-EDF", engine::SchedulerKind::kGlobalJob, edf},
        {"global-RM", engine::SchedulerKind::kGlobalJob, rm},
        {"PD2", engine::SchedulerKind::kPfair, edf}};

    for (const std::int64_t P : {10, 20, 40, 80, 160, 320}) {
      std::vector<UniTask> ts(static_cast<std::size_t>(m), UniTask{2, P});
      ts.push_back({P, P + 1});
      const double util = 2.0 / static_cast<double>(P) * m +
                          static_cast<double>(P) / static_cast<double>(P + 1);

      const auto results = engine::compare_schedulers(ts, specs, 20 * P);
      const std::uint64_t gedf_miss = results[0].metrics.deadline_misses;
      const std::uint64_t grm_miss = results[1].metrics.deadline_misses;
      const std::uint64_t pd2_miss = results[2].metrics.deadline_misses;

      std::printf("  %6lld %12.3f %14.3f %12llu %12llu %12llu\n",
                  static_cast<long long>(P), util, util / static_cast<double>(m),
                  static_cast<unsigned long long>(gedf_miss),
                  static_cast<unsigned long long>(grm_miss),
                  static_cast<unsigned long long>(pd2_miss));
      h.add_row()
          .set("period", static_cast<long long>(P))
          .set("total_util", util)
          .set("util_per_proc", util / static_cast<double>(m))
          .set("gedf_misses", static_cast<long long>(gedf_miss))
          .set("grm_misses", static_cast<long long>(grm_miss))
          .set("pd2_misses", static_cast<long long>(pd2_miss));
    }
    std::printf("# global EDF/RM miss in every row while util/m -> 1/m; PD2 never does\n");
    std::printf("# (Dhall & Liu 1978, the paper's Sec.-1 case against naive global\n");
    std::printf("#  scheduling; partitioning's own pathology is sec3_partition_bounds)\n");
    return 0;
  });
}
