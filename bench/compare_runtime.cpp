// Runtime comparison: the experiment the paper argues about but never
// plots — run the SAME workload through global PD2 and through a real
// partitioned EDF-FF runtime and compare realised preemptions, context
// switches and migrations.  This quantifies the paper's central
// concession ("preemptions and migrations ... tend to occur frequently
// under Pfair scheduling") with the affinity optimisation applied, next
// to its rejoinder that the absolute costs are small.
//
// Built on engine::compare_schedulers: one workload, one spec list, one
// unified metrics read-out per scheduler.
//
// Usage: compare_runtime [--processors=4] [--horizon=20000] [--trials=10]
//                        [--seed=1] [--jobs=N] [--kind=edf-ff|bf|run] [--json]
//
// --kind swaps the runtime PD2 is compared against.  The default is the
// paper's partitioned EDF-FF; bf and run select the successor roster
// (boundary fair / reduction-to-uniprocessor).  For those two the
// workload switches to divisor-of-720720 periods so RUN's tick grid
// stays bounded and every leg admits the same sets, and each trial is
// re-run with tracing on and pushed through the matching verifier (BF:
// job-boundary exactness; RUN: segment-log service check) — any miss or
// violation is counted, never silently dropped.
//
// Trials (full simulator runs — the heaviest per-trial work in the
// bench suite) fan out across --jobs worker threads with counter-based
// per-trial RNG streams; the report is byte-identical for any --jobs
// value.
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/fig_common.h"
#include "sim/bf_sim.h"
#include "sim/run_sim.h"
#include "sim/verifier.h"

namespace {

/// Divisor-family workload for the roster kinds: total weight <= cap
/// over exact rationals, periods dividing 720720 so RUN admits.
std::vector<pfair::UniTask> roster_workload(pfair::Rng& rng, std::size_t n,
                                            pfair::Rational cap) {
  using namespace pfair;
  std::vector<UniTask> out;
  Rational total(0);
  for (std::size_t i = 0; i < n; ++i) {
    const Task t = random_pfair_task(rng, 64);
    const Rational w(t.execution, t.period);
    if (total + w > cap) continue;
    total = total + w;
    out.push_back(make_uni_task(t.execution, t.period));
  }
  return out;
}

/// Replays `uni` under the selected roster kind with tracing on and
/// verifies it; true iff miss-free and verifier-clean.
bool roster_verified(const std::string& kind, const std::vector<pfair::UniTask>& uni,
                     int m, long long horizon) {
  using namespace pfair;
  TaskSet tasks;
  for (const UniTask& t : uni) tasks.add(make_task(t.execution, t.period));
  if (kind == "bf") {
    BfSimulator bf(tasks, BfConfig{m, true});
    bf.run_until(horizon);
    VerifyOptions vo;
    vo.processors = m;
    vo.check_windows = false;
    vo.check_lags = false;
    vo.check_job_boundaries = true;
    return bf.metrics().deadline_misses == 0 && verify_schedule(bf.trace(), tasks, vo).ok;
  }
  RunSimulator run((RunConfig{m, true}));
  for (const UniTask& t : uni)
    if (!run.admit(engine::task_spec(t.execution, t.period))) return false;
  run.run_until(horizon);
  return run.metrics().deadline_misses == 0 &&
         verify_run_segments(run.segments(), run.tasks(), run.ticks_per_slot(), horizon,
                             m)
             .ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfair;
  using namespace pfair::bench;

  engine::ExperimentHarness h("compare_runtime", argc, argv);
  const int m = static_cast<int>(h.flag("processors", 4));
  const long long horizon = h.horizon(20000);
  const long long sets = h.trials(10);
  const std::string kind = h.flag_string("kind", "edf-ff");
  const bool roster = kind == "bf" || kind == "run";
  if (!roster && kind != "edf-ff") {
    std::fprintf(stderr, "compare_runtime: unknown --kind=%s (want edf-ff, bf or run)\n",
                 kind.c_str());
    return 2;
  }

  return h.run([&] {
    std::printf("# PD2 vs %s runtime behaviour (%d processors, same workloads)\n",
                kind.c_str(), m);
    std::printf("# counts per 1000 slots; both systems miss-free on these loads\n");
    std::printf("# %6s | %10s %10s %10s | %10s %10s | %8s\n", "load", "pd2_preempt",
                "pd2_switch", "pd2_migr", "ff_preempt", "ff_switch", "placed");

    engine::SimulatorConfig config;
    config.set_processors(m);
    config.bf.record_trace = false;
    config.run.record_segments = false;
    std::vector<engine::SchedulerSpec> specs = {{"PD2", engine::SchedulerKind::kPfair, config}};
    if (kind == "bf") {
      specs.push_back({"BF", engine::SchedulerKind::kBf, config});
    } else if (kind == "run") {
      specs.push_back({"RUN", engine::SchedulerKind::kRun, config});
    } else {
      specs.push_back({"EDF-FF", engine::SchedulerKind::kPartitioned, config});
    }

    engine::ParallelSweep sweep(h.jobs(), h.seed(1));
    const bench::WallTimer wall;
    int load_idx = 0;
    for (const double load : {0.3, 0.5, 0.7, 0.85}) {
      struct Trial {
        bool placed = false;
        bool verified = true;           ///< roster kinds: trace/segment verifier clean
        std::uint64_t ff_rejected = 0;  ///< tasks the second leg turned away
        engine::Metrics pd2;
        engine::Metrics ff;
      };
      const std::vector<Trial> trials = sweep.run(
          static_cast<std::uint64_t>(load_idx++), sets, [&](long long, Rng& rng) {
            const std::vector<UniTask> uni =
                roster ? roster_workload(
                             rng, static_cast<std::size_t>(5 * m),
                             Rational(static_cast<std::int64_t>(load * 100.0) * m, 100))
                       : generate_uni_tasks(rng, static_cast<std::size_t>(5 * m),
                                            load * static_cast<double>(m), 64);
            const auto results = engine::compare_schedulers(uni, specs, horizon);
            Trial out;
            // Admission counters are valid even for infeasible results: an
            // unplaced set is no longer a silent drop but a visible count.
            out.ff_rejected = results[1].metrics.tasks_rejected;
            if (!results[1].feasible) return out;  // FF fragmentation loss
            out.placed = true;
            out.pd2 = results[0].metrics;
            out.ff = results[1].metrics;
            if (roster) out.verified = roster_verified(kind, uni, m, horizon);
            return out;
          });
      RunningStats pd2_pre, pd2_sw, pd2_mig, ff_pre, ff_sw;
      int placed = 0;
      int verified = 0;
      long long s = -1;
      std::uint64_t pd2_ff_slots = 0;
      std::uint64_t pd2_invocations = 0;
      std::uint64_t leg_points = 0;
      std::uint64_t ff_rejected = 0;
      for (const Trial& t : trials) {  // trial order: deterministic merge
        ++s;
        ff_rejected += t.ff_rejected;
        if (!t.placed) continue;
        ++placed;
        if (t.verified) ++verified;
        else std::printf("# %s verification FAILED (set %lld)\n", kind.c_str(), s);
        pd2_ff_slots += t.pd2.fast_forwarded_slots;
        pd2_invocations += t.pd2.scheduling_points;
        leg_points += t.ff.scheduling_points;
        const double k = 1000.0 / static_cast<double>(horizon);
        ff_pre.add(static_cast<double>(t.ff.preemptions) * k);
        ff_sw.add(static_cast<double>(t.ff.context_switches) * k);
        if (t.ff.deadline_misses != 0)
          std::printf("# unexpected %s miss (set %lld)\n", kind.c_str(), s);
        pd2_pre.add(static_cast<double>(t.pd2.preemptions) * k);
        pd2_sw.add(static_cast<double>(t.pd2.context_switches) * k);
        pd2_mig.add(static_cast<double>(t.pd2.migrations) * k);
        if (t.pd2.deadline_misses != 0)
          std::printf("# unexpected PD2 miss (set %lld)\n", s);
      }
      std::printf("  %6.2f | %10.1f %10.1f %10.1f | %10.1f %10.1f | %5d/%lld\n", load,
                  pd2_pre.mean(), pd2_sw.mean(), pd2_mig.mean(), ff_pre.mean(), ff_sw.mean(),
                  placed, sets);
      h.add_row()
          .set("load", load)
          .set("pd2_preemptions", pd2_pre)
          .set("pd2_switches", pd2_sw)
          .set("pd2_migrations", pd2_mig)
          .set("ff_preemptions", ff_pre)
          .set("ff_switches", ff_sw)
          .set("placed", static_cast<long long>(placed))
          .set("verified", static_cast<long long>(verified))
          .set("ff_rejected_tasks", static_cast<long long>(ff_rejected))
          .set("pd2_fast_forwarded_slots", static_cast<long long>(pd2_ff_slots))
          .set("pd2_sched_invocations", static_cast<long long>(pd2_invocations))
          .set("leg_sched_points", static_cast<long long>(leg_points));
    }
    std::printf("# expectations: PD2 preempts/migrates more (the paper's concession);\n");
    std::printf("# the ratio shrinks with affinity and the per-event cost (Sec. 4) is\n");
    std::printf("# what Figs. 3-4 charge against it.  EDF-FF's 'placed' column shows\n");
    std::printf("# sets lost to bin-packing before any runtime cost is paid.\n");
    std::printf("# wall %.2fs (--jobs %d)\n", wall.seconds(), sweep.jobs());
    return 0;
  });
}
