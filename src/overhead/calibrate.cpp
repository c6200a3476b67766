#include "overhead/calibrate.h"

#include "obs/prof.h"
#include "sim/pfair_sim.h"
#include "uniproc/uni_sim.h"
#include "workload/generator.h"

namespace pfair {

namespace {

/// Runs `sim` to `horizon` with profiling on and returns (release +
/// select) µs per select scope of that run alone: the delta of the
/// obs::prof totals around it.  Restores the profiling switch.
double invocation_us(engine::Simulator& sim, Time horizon) {
  const bool was_enabled = obs::prof::enabled();
  obs::prof::set_enabled(true);
  const std::vector<obs::prof::PhaseTotals> before = obs::prof::collect_totals();
  sim.run_until(horizon);
  const std::vector<obs::prof::PhaseTotals> after = obs::prof::collect_totals();
  obs::prof::set_enabled(was_enabled);
  const auto rel = static_cast<std::size_t>(obs::prof::Phase::kRelease);
  const auto sel = static_cast<std::size_t>(obs::prof::Phase::kSelect);
  const std::uint64_t invocations = after[sel].count - before[sel].count;
  if (invocations == 0) return 0.0;
  const std::uint64_t ns = (after[rel].total_ns - before[rel].total_ns) +
                           (after[sel].total_ns - before[sel].total_ns);
  return static_cast<double>(ns) / static_cast<double>(invocations) / 1000.0;
}

}  // namespace

std::vector<Task> fig2_taskset(Rng& rng, std::size_t n, double u_cap, std::int64_t p_max) {
  const std::vector<UniTask> uni = generate_uni_tasks(rng, n, u_cap, p_max);
  std::vector<Task> out;
  out.reserve(uni.size());
  for (const UniTask& t : uni) out.push_back(make_task(t.execution, t.period));
  return out;
}

double edf_invocation_us(const std::vector<Task>& tasks, Time horizon) {
  std::vector<UniTask> uni;
  uni.reserve(tasks.size());
  for (const Task& t : tasks) uni.push_back({t.execution, t.period});
  UniprocSimulator sim(std::move(uni), UniSimConfig{UniAlgorithm::kEDF});
  return invocation_us(sim, horizon);
}

double pd2_invocation_us(const std::vector<Task>& tasks, int processors, Time horizon) {
  PfairConfig pc;
  pc.processors = processors;
  pc.algorithm = Algorithm::kPD2;
  pc.idle_fast_forward = false;
  PfairSimulator sim(pc);
  for (const Task& t : tasks) sim.add_task(t);
  return invocation_us(sim, horizon);
}

SchedCostModel calibrate_sched_costs(const CalibrationConfig& config) {
  SchedCostModel model;  // overwritten entirely below
  Rng master(config.seed);

  std::array<double, 9> edf_row{};
  std::array<std::array<double, 9>, 5> pd2_rows{};

  for (std::size_t ni = 0; ni < SchedCostModel::kTaskCounts.size(); ++ni) {
    const auto n = static_cast<std::size_t>(SchedCostModel::kTaskCounts[ni]);
    double edf_sum = 0.0;
    std::array<double, 5> pd2_sum{};
    for (std::int64_t s = 0; s < config.sets; ++s) {
      Rng rng = master.fork(static_cast<std::uint64_t>(ni) * 64 +
                            static_cast<std::uint64_t>(s));
      // EDF on one processor, util <= 1.
      edf_sum += edf_invocation_us(fig2_taskset(rng, n, 0.98), config.horizon * 20);
      // PD2 at each tabulated processor count, util <= 0.95 m.
      for (std::size_t mi = 0; mi < SchedCostModel::kProcCounts.size(); ++mi) {
        const int m = static_cast<int>(SchedCostModel::kProcCounts[mi]);
        pd2_sum[mi] += pd2_invocation_us(
            fig2_taskset(rng, n, 0.95 * static_cast<double>(m)), m, config.horizon);
      }
    }
    edf_row[ni] = edf_sum / static_cast<double>(config.sets);
    for (std::size_t mi = 0; mi < pd2_rows.size(); ++mi)
      pd2_rows[mi][ni] = pd2_sum[mi] / static_cast<double>(config.sets);
  }

  model.set_edf_table(edf_row);
  for (std::size_t mi = 0; mi < pd2_rows.size(); ++mi)
    model.set_pd2_table(mi, pd2_rows[mi]);
  return model;
}

}  // namespace pfair
