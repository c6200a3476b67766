#include "qa/oracle.h"

#include <algorithm>
#include <sstream>

#include "core/windows.h"
#include "sim/bf_sim.h"
#include "sim/pfair_sim.h"
#include "sim/verifier.h"
#include "uniproc/analysis.h"
#include "uniproc/partitioned_sim.h"

namespace pfair::qa {

namespace {

/// Replays `c` under `alg` with tracing, applying the dynamic script in
/// time order (joins/leaves at equal times: leaves first, so a leaving
/// task's capacity can be reclaimed by a join at the same instant).
OracleContext::Run replay(const FuzzCase& c, Algorithm alg) {
  PfairConfig cfg;
  cfg.processors = c.processors;
  cfg.algorithm = alg;
  cfg.record_trace = true;
  PfairSimulator sim(cfg);
  for (const Task& t : c.tasks.tasks()) {
    Task spec = t;
    spec.kind = c.kind;
    sim.add_task(spec);
  }
  std::size_t total_tasks = c.tasks.size();
  std::size_t next_join = 0;
  std::size_t next_leave = 0;
  while (next_join < c.joins.size() || next_leave < c.leaves.size()) {
    const Time t_join =
        next_join < c.joins.size() ? c.joins[next_join].at : c.horizon;
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
      if (sim.join(spec).has_value()) ++total_tasks;
      ++next_join;
    }
  }
  sim.run_until(c.horizon);
  OracleContext::Run run;
  run.trace = sim.trace();
  run.metrics = sim.metrics();
  run.total_tasks = total_tasks;
  return run;
}

// --- applicability predicates -------------------------------------------

bool is_static_periodic(const FuzzCase& c) {
  return c.kind == TaskKind::kPeriodic && !c.has_dynamics();
}

bool is_static_early_release(const FuzzCase& c) {
  return c.kind == TaskKind::kEarlyRelease && !c.has_dynamics();
}

bool always(const FuzzCase&) { return true; }

bool has_dynamics(const FuzzCase& c) { return c.has_dynamics(); }

// --- checks --------------------------------------------------------------

OracleOutcome from_verifier(const VerifyResult& res) {
  OracleOutcome out;
  out.violated = !res.ok;
  if (!res.ok) out.detail = res.first_violation;
  return out;
}

OracleOutcome check_window_containment(OracleContext& ctx) {
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  VerifyOptions opt;
  opt.processors = ctx.fuzz_case().processors;
  opt.check_windows = true;
  opt.check_lags = false;
  return from_verifier(verify_schedule(run.trace, ctx.fuzz_case().tasks, opt));
}

OracleOutcome check_lag_bounds(OracleContext& ctx) {
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  VerifyOptions opt;
  opt.processors = ctx.fuzz_case().processors;
  opt.check_windows = false;
  opt.check_lags = true;
  return from_verifier(verify_schedule(run.trace, ctx.fuzz_case().tasks, opt));
}

/// Structural capacity, independent of the verifier: at most M
/// allocations per slot and at most one per task.  Applies to every
/// case, including dynamic scripts (task ids beyond the initial set are
/// accepted joins).
OracleOutcome check_quantum_capacity(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  OracleOutcome out;
  std::vector<int> seen(run.total_tasks, 0);
  for (std::size_t t = 0; t < run.trace.size(); ++t) {
    const TraceSlot& slot = run.trace[t];
    if (slot.proc_to_task.size() > static_cast<std::size_t>(c.processors)) {
      std::ostringstream os;
      os << "slot " << t << " has " << slot.proc_to_task.size() << " processors (M = "
         << c.processors << ")";
      out.violated = true;
      out.detail = os.str();
      return out;
    }
    for (const TaskId id : slot.proc_to_task) {
      if (id == kNoTask) continue;
      if (id >= seen.size()) {
        std::ostringstream os;
        os << "slot " << t << " schedules unknown task " << id;
        out.violated = true;
        out.detail = os.str();
        return out;
      }
      if (++seen[id] > 1) {
        std::ostringstream os;
        os << "slot " << t << " gives task " << id << " two processors";
        out.violated = true;
        out.detail = os.str();
        return out;
      }
    }
    for (const TaskId id : slot.proc_to_task) {
      if (id != kNoTask) seen[id] = 0;
    }
  }
  return out;
}

/// The simulator's own miss accounting and the independent trace
/// verifier must agree: both clean or both flagging.
OracleOutcome check_verifier_agreement(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  VerifyOptions opt;
  opt.processors = c.processors;
  const VerifyResult res = verify_schedule(run.trace, c.tasks, opt);
  const bool sim_clean = run.metrics.deadline_misses == 0;
  OracleOutcome out;
  if (sim_clean != res.ok) {
    std::ostringstream os;
    os << "simulator reports " << run.metrics.deadline_misses
       << " misses but the trace verifier says "
       << (res.ok ? "the schedule is valid" : res.first_violation);
    out.violated = true;
    out.detail = os.str();
  }
  return out;
}

/// PD2, PF and PD are all optimal: on a feasible set every one of them
/// must be miss-free, so any miss — or any disagreement — is a bug in
/// a priority comparator or the simulator around it.  EPDF is only
/// optimal on one processor; it joins the panel there.
OracleOutcome check_optimal_differential(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  std::vector<Algorithm> panel = {Algorithm::kPD2, Algorithm::kPF, Algorithm::kPD};
  if (c.processors == 1) panel.push_back(Algorithm::kEPDF);
  OracleOutcome out;
  std::ostringstream os;
  for (const Algorithm alg : panel) {
    const OracleContext::Run& run = ctx.pfair_run(alg);
    if (run.metrics.deadline_misses > 0) {
      if (out.violated) os << "; ";
      os << algorithm_name(alg) << " missed " << run.metrics.deadline_misses
         << " deadlines (first at t=" << run.metrics.first_miss_time
         << ") on a feasible set";
      out.violated = true;
    }
  }
  if (out.violated) out.detail = os.str();
  return out;
}

/// Applies only when the case sits strictly below the Lopez EDF-FF
/// utilization bound for its own u_max; there first-fit EDF must place
/// every task and run miss-free.
bool lopez_applies(const FuzzCase& c) {
  if (!is_static_periodic(c)) return false;
  std::vector<UniTask> uni;
  for (const Task& t : c.tasks.tasks()) uni.push_back(UniTask{t.execution, t.period});
  const std::int64_t beta = lopez_beta(uni);
  return c.tasks.total_weight() < lopez_edf_ff_bound(c.processors, beta);
}

OracleOutcome check_partitioned_lopez(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  std::vector<UniTask> uni;
  for (const Task& t : c.tasks.tasks()) uni.push_back(UniTask{t.execution, t.period});
  PartitionConfig cfg;
  cfg.max_processors = c.processors;
  cfg.heuristic = Heuristic::kFirstFit;
  cfg.algorithm = UniAlgorithm::kEDF;
  PartitionedSimulator sim(uni, cfg);
  OracleOutcome out;
  if (!sim.all_tasks_placed()) {
    std::ostringstream os;
    const std::int64_t beta = lopez_beta(uni);
    const Rational bound = lopez_edf_ff_bound(c.processors, beta);
    os << "EDF-FF left " << sim.unplaced().size() << " of " << uni.size()
       << " tasks unplaced below the Lopez bound " << bound.num() << "/" << bound.den()
       << " (beta=" << beta << ", M=" << c.processors << ")";
    out.violated = true;
    out.detail = os.str();
    return out;
  }
  sim.run_until(c.horizon);
  if (sim.metrics().deadline_misses > 0) {
    std::ostringstream os;
    os << "EDF-FF missed " << sim.metrics().deadline_misses
       << " deadlines below the Lopez bound (first at t="
       << sim.metrics().first_miss_time << ")";
    out.violated = true;
    out.detail = os.str();
  }
  return out;
}

OracleOutcome check_erfair_deadline(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  VerifyOptions opt;
  opt.processors = c.processors;
  opt.check_windows = false;  // early release runs before pseudo-releases
  opt.check_lags = false;
  opt.check_upper_lag_only = true;
  OracleOutcome out = from_verifier(verify_schedule(run.trace, c.tasks, opt));
  if (!out.violated && run.metrics.deadline_misses > 0) {
    std::ostringstream os;
    os << "ERfair run reports " << run.metrics.deadline_misses
       << " misses (first at t=" << run.metrics.first_miss_time << ")";
    out.violated = true;
    out.detail = os.str();
  }
  return out;
}

/// ERfair work conservation, re-derived from the trace alone.  Task T's
/// next subtask i = allocated + 1 is eligible at slot t iff
///   - i continues the current job (its predecessor ran in some slot
///     < t, making it eligible immediately under early release), or
///   - i opens a new job and that job's release r(T_i) is <= t.
/// A slot violates work conservation when it leaves a processor idle
/// while some eligible task is unscheduled.
OracleOutcome check_erfair_work_conservation(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  const std::size_t n = c.tasks.size();
  std::vector<std::int64_t> allocated(n, 0);
  OracleOutcome out;
  for (std::size_t t = 0; t < run.trace.size(); ++t) {
    std::size_t pending = 0;
    for (TaskId id = 0; id < n; ++id) {
      const Task& task = c.tasks[id];
      const SubtaskIndex i = allocated[id] + 1;
      const bool first_of_job = (i - 1) % task.execution == 0;
      const bool eligible =
          !first_of_job ||
          subtask_release(task.execution, task.period, i) <= static_cast<Time>(t);
      if (eligible) ++pending;
    }
    std::size_t busy = 0;
    for (const TaskId id : run.trace[t].proc_to_task) {
      if (id == kNoTask) continue;
      ++busy;
      ++allocated[id];
    }
    const std::size_t capacity = std::min<std::size_t>(
        static_cast<std::size_t>(c.processors), pending);
    if (busy < capacity) {
      std::ostringstream os;
      os << "slot " << t << " runs " << busy << " tasks while " << pending
         << " are eligible on " << c.processors << " processors";
      out.violated = true;
      out.detail = os.str();
      return out;
    }
  }
  return out;
}

/// Joins are admitted only under Eq. (2) and departures follow the
/// leave rules, so a dynamic run must stay miss-free end to end.
OracleOutcome check_dynamic_safety(OracleContext& ctx) {
  const OracleContext::Run& run = ctx.pfair_run(Algorithm::kPD2);
  OracleOutcome out;
  if (run.metrics.deadline_misses > 0) {
    std::ostringstream os;
    os << "dynamic run missed " << run.metrics.deadline_misses
       << " deadlines (first at t=" << run.metrics.first_miss_time
       << ") despite rule-respecting joins/leaves";
    out.violated = true;
    out.detail = os.str();
  }
  return out;
}

/// BF is optimal: any static feasible set (the generator only emits
/// sum wt <= M) must run miss-free, with the allocation exact at every
/// job boundary — checked by the independent trace verifier, and
/// cross-checked against the simulator's own miss accounting.
OracleOutcome check_bf_optimality(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& run = ctx.bf_run();
  VerifyOptions opt;
  opt.processors = c.processors;
  opt.check_windows = false;  // BF reorders freely inside an interval
  opt.check_lags = false;
  opt.check_job_boundaries = true;
  const VerifyResult res = verify_schedule(run.trace, c.tasks, opt);
  OracleOutcome out = from_verifier(res);
  if (!out.violated && run.metrics.deadline_misses > 0) {
    std::ostringstream os;
    os << "BF reports " << run.metrics.deadline_misses
       << " misses (first at t=" << run.metrics.first_miss_time
       << ") on a feasible set, but the trace verifier found none";
    out.violated = true;
    out.detail = os.str();
  }
  return out;
}

/// BF vs PD2 boundary-allocation differential: at every period
/// boundary b (a multiple of ANY task's period) the cumulative
/// allocation of each task, under both schedulers, must track the
/// fluid schedule wt * b within one quantum — and exactly at the
/// task's own boundaries, where wt * b is integral.  Two independently
/// implemented optimal schedulers agreeing with the same fluid target
/// pins the allocation math of both.
OracleOutcome check_bf_boundary_differential(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::Run& bf = ctx.bf_run();
  const OracleContext::Run& pd2 = ctx.pfair_run(Algorithm::kPD2);
  const std::size_t horizon =
      std::min(bf.trace.size(), pd2.trace.size());
  OracleOutcome out;
  for (TaskId id = 0; id < c.tasks.size(); ++id) {
    const Task& probe = c.tasks[id];
    for (Time b = probe.period; b <= static_cast<Time>(horizon);
         b += probe.period) {
      for (TaskId other = 0; other < c.tasks.size(); ++other) {
        const Task& t = c.tasks[other];
        const std::int64_t fluid_num = t.execution * b;  // wt * b, over den p
        const struct {
          const char* name;
          std::int64_t alloc;
        } runs[] = {{"BF", bf.trace.allocation(other, static_cast<std::size_t>(b))},
                    {"PD2", pd2.trace.allocation(other, static_cast<std::size_t>(b))}};
        for (const auto& r : runs) {
          const std::int64_t scaled = r.alloc * t.period;
          const bool within = scaled > fluid_num - t.period &&
                              scaled < fluid_num + t.period;
          const bool own = b % t.period == 0;
          const bool exact = r.alloc * t.period == fluid_num;
          if (within && (!own || exact)) continue;
          std::ostringstream os;
          os << r.name << " allocation of task " << other << " at boundary "
             << b << " is " << r.alloc << ", fluid target " << fluid_num
             << "/" << t.period << (own ? " (own boundary: must be exact)" : "");
          out.violated = true;
          out.detail = os.str();
          return out;
        }
      }
    }
  }
  return out;
}

/// RUN is optimal and capacity-checked: it must admit every feasible
/// static set, and the independently verified segment log must show
/// every job served exactly within its window with no misses.
OracleOutcome check_run_optimality(OracleContext& ctx) {
  const FuzzCase& c = ctx.fuzz_case();
  const OracleContext::RunRun& run = ctx.run_run();
  OracleOutcome out;
  if (!run.admitted_all) {
    std::ostringstream os;
    os << "RUN rejected " << run.metrics.tasks_rejected
       << " of " << c.tasks.size() << " tasks of a feasible set";
    out.violated = true;
    out.detail = os.str();
    return out;
  }
  if (run.metrics.deadline_misses > 0) {
    std::ostringstream os;
    os << "RUN missed " << run.metrics.deadline_misses
       << " deadlines (first at t=" << run.metrics.first_miss_time
       << ") on a feasible set";
    out.violated = true;
    out.detail = os.str();
    return out;
  }
  const RunVerifyResult res = verify_run_segments(
      run.segments, c.tasks, run.ticks, c.horizon, c.processors);
  if (!res.ok) {
    out.violated = true;
    out.detail = res.first_violation;
  }
  return out;
}

}  // namespace

const OracleContext::Run& OracleContext::pfair_run(Algorithm alg) {
  auto it = runs_.find(alg);
  if (it == runs_.end()) it = runs_.emplace(alg, replay(case_, alg)).first;
  return it->second;
}

const OracleContext::Run& OracleContext::bf_run() {
  if (!bf_) {
    BfConfig cfg;
    cfg.processors = case_.processors;
    cfg.record_trace = true;
    BfSimulator sim(case_.tasks, cfg);
    sim.run_until(case_.horizon);
    auto run = std::make_unique<Run>();
    run->trace = sim.trace();
    run->metrics = sim.metrics();
    run->total_tasks = case_.tasks.size();
    bf_ = std::move(run);
  }
  return *bf_;
}

const OracleContext::RunRun& OracleContext::run_run() {
  if (!run_) {
    RunConfig cfg;
    cfg.processors = case_.processors;
    cfg.record_segments = true;
    RunSimulator sim(cfg);
    bool all = true;
    for (const Task& t : case_.tasks.tasks())
      all = sim.admit(engine::task_spec(t.execution, t.period)) && all;
    if (all) sim.run_until(case_.horizon);
    auto run = std::make_unique<RunRun>();
    run->segments = sim.segments();
    run->metrics = sim.metrics();
    run->ticks = sim.ticks_per_slot();
    run->admitted_all = all;
    run_ = std::move(run);
  }
  return *run_;
}

const std::vector<Oracle>& oracle_registry() {
  static const std::vector<Oracle> registry = {
      {"window-containment", is_static_periodic, check_window_containment},
      {"lag-bounds", is_static_periodic, check_lag_bounds},
      {"quantum-capacity", always, check_quantum_capacity},
      {"verifier-agreement", is_static_periodic, check_verifier_agreement},
      {"optimal-differential", is_static_periodic, check_optimal_differential},
      {"partitioned-lopez", lopez_applies, check_partitioned_lopez},
      {"erfair-deadline", is_static_early_release, check_erfair_deadline},
      {"erfair-work-conservation", is_static_early_release,
       check_erfair_work_conservation},
      {"dynamic-safety", has_dynamics, check_dynamic_safety},
      {"bf-optimality", is_static_periodic, check_bf_optimality},
      {"bf-boundary-differential", is_static_periodic,
       check_bf_boundary_differential},
      {"run-optimality", is_static_periodic, check_run_optimality},
  };
  return registry;
}

std::vector<OracleReport> run_oracles(const FuzzCase& c) {
  std::vector<OracleReport> reports;
  const std::string problem = validate(c);
  if (!problem.empty()) {
    OracleReport r;
    r.name = "case-validation";
    r.applied = true;
    r.violated = true;
    r.detail = problem;
    reports.push_back(std::move(r));
    return reports;
  }
  OracleContext ctx(c);
  for (const Oracle& o : oracle_registry()) {
    OracleReport r;
    r.name = o.name;
    r.applied = o.applies(c);
    if (r.applied) {
      OracleOutcome outcome = o.check(ctx);
      r.violated = outcome.violated;
      r.detail = std::move(outcome.detail);
    }
    reports.push_back(std::move(r));
  }
  return reports;
}

CaseVerdict check_case(const FuzzCase& c) {
  CaseVerdict v;
  for (const OracleReport& r : run_oracles(c)) {
    if (r.violated) {
      v.ok = false;
      v.oracle = r.name;
      v.detail = r.detail;
      return v;
    }
  }
  return v;
}

}  // namespace pfair::qa
