// The two simulator workloads: one operation is one task set taken through
// one scheduler, from construction and admission to its metrics row.
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/task.h"
#include "engine/factory.h"
#include "obs/prof.h"
#include "sim/bf_sim.h"
#include "sim/pfair_sim.h"
#include "sim/run_sim.h"
#include "sim/verifier.h"
#include "workloads.h"

namespace bench {
namespace {

namespace engine = pfair::engine;
namespace prof = pfair::obs::prof;
using engine::SchedulerKind;
using pfair::Time;

struct TaskSetInput {
  std::vector<std::pair<std::int64_t, std::int64_t>> tasks;  ///< (execution, period)
  pfair::TaskSet set;  ///< the same tasks, for the verifiers
};

struct SimSpec {
  const char* name;
  int processors;
  Time horizon;
  std::vector<double> loads;  ///< sets cycle through these shares of M
  double u_lo, u_hi;          ///< per-task utilization range
  std::int64_t p_lo, p_hi;    ///< periods: divisors of 720720 in this range
  std::size_t sets;
  std::vector<SchedulerKind> kinds;
};

/// Tasks are added while the exact total (units of 1/720720) stays within
/// load * M, so every scheduler here admits every task.
TaskSetInput make_task_set(const SimSpec& spec, double load, Rng& rng) {
  const std::vector<std::int64_t> periods = base_divisors(spec.p_lo, spec.p_hi);
  const auto cap = static_cast<std::int64_t>(load * spec.processors * kBasePeriod);
  TaskSetInput in;
  std::int64_t total = 0;
  for (int misses = 0; misses < 40;) {
    const auto [e, p] = draw_task(rng, periods, spec.u_lo, spec.u_hi - spec.u_lo);
    const std::int64_t w = e * (kBasePeriod / p);
    if (total + w > cap) {
      ++misses;
      continue;
    }
    total += w;
    in.tasks.emplace_back(e, p);
    in.set.add(pfair::make_task(e, p));
  }
  return in;
}

std::vector<TaskSetInput> make_inputs(const SimSpec& spec, std::uint64_t seed) {
  std::vector<TaskSetInput> out;
  for (std::size_t i = 0; i < spec.sets; ++i) {
    Rng rng(derive_seed(seed, 1000 + i));
    out.push_back(make_task_set(spec, spec.loads[i % spec.loads.size()], rng));
  }
  return out;
}

const char* kind_tag(SchedulerKind k) {
  return k == SchedulerKind::kPfair ? "pd2" : k == SchedulerKind::kBf ? "bf" : "run";
}

std::size_t kind_index(SchedulerKind k) {
  return k == SchedulerKind::kPfair ? 0 : k == SchedulerKind::kBf ? 1 : 2;
}

std::unique_ptr<engine::Simulator> make(SchedulerKind kind, int m, bool record) {
  engine::SimulatorConfig c;
  c.pfair.processors = m;
  c.pfair.record_trace = record;
  c.bf.processors = m;
  c.bf.record_trace = record;
  c.run.processors = m;
  c.run.record_segments = record;
  return engine::make_simulator(kind, c);
}

bool admit_all(engine::Simulator& sim, const TaskSetInput& in) {
  bool ok = true;
  for (const auto& [e, p] : in.tasks) ok &= sim.admit(engine::task_spec(e, p));
  return ok;
}

void digest_row(Digest& d, SchedulerKind kind, const engine::Metrics& m) {
  d.add(static_cast<std::int64_t>(kind_index(kind)));
  for (const std::uint64_t v : {m.slots, m.scheduling_points, m.preemptions, m.migrations,
                                m.context_switches, m.jobs_completed, m.deadline_misses})
    d.add(static_cast<std::int64_t>(v));
}

/// Checks one metrics row; a miss or refused admission fails the operation.
void check_row(Report& rep, const SimSpec& spec, SchedulerKind kind, std::size_t set,
               bool admitted, const engine::Metrics& m) {
  if (admitted && m.deadline_misses == 0) return;
  ++rep.failed;
  rep.fail(std::string(spec.name) + ": " + kind_tag(kind) + " set " + std::to_string(set) +
           (admitted ? " missed a deadline" : " refused a task"));
}

/// Re-runs one operation with its trace or segment log kept and checks it
/// with the independent verifier for that scheduler.
void verify(Report& rep, const SimSpec& spec, SchedulerKind kind, std::size_t idx,
            const TaskSetInput& in, const engine::Metrics& timed_row) {
  auto sim = make(kind, spec.processors, true);
  admit_all(*sim, in);
  sim->run_until(spec.horizon);
  Digest a, b;
  digest_row(a, kind, timed_row);
  digest_row(b, kind, sim->metrics());
  std::string problem;
  if (a.value() != b.value()) problem = "recording changed the metrics row";
  pfair::VerifyOptions vo;
  vo.processors = spec.processors;
  if (kind == SchedulerKind::kPfair) {
    const auto r = pfair::verify_schedule(dynamic_cast<pfair::PfairSimulator&>(*sim).trace(),
                                          in.set, vo);
    if (!r.ok) problem = r.first_violation;
  } else if (kind == SchedulerKind::kBf) {
    vo.check_windows = false;
    vo.check_lags = false;
    vo.check_job_boundaries = true;
    const auto r =
        pfair::verify_schedule(dynamic_cast<pfair::BfSimulator&>(*sim).trace(), in.set, vo);
    if (!r.ok) problem = r.first_violation;
  } else {
    const auto& run = dynamic_cast<pfair::RunSimulator&>(*sim);
    const auto r = pfair::verify_run_segments(run.segments(), run.tasks(), run.ticks_per_slot(),
                                              spec.horizon, spec.processors);
    if (!r.ok) problem = r.first_violation;
  }
  if (problem.empty()) return;
  ++rep.failed;
  rep.fail(std::string(spec.name) + ": " + kind_tag(kind) + " set " + std::to_string(idx) +
           " failed verification: " + problem);
}

/// PD2 kernel phases from obs::prof, by registry name, so phases the
/// library adds or drops never break the build.
struct PhaseMap {
  const char* name;
  Layer layer;
};
constexpr PhaseMap kPhases[] = {
    {"kernel.phase_a", Layer::kPd2PhaseA},   {"kernel.merge", Layer::kPd2Merge},
    {"kernel.advance", Layer::kPd2Advance},  {"sim.assign", Layer::kPd2Assign},
    {"sim.release", Layer::kPd2Release},     {"legacy.miss_sweep", Layer::kPd2LegacyMissSweep},
    {"legacy.select", Layer::kPd2LegacySelect},
};

struct PhaseSnapshot {
  std::uint64_t ns[std::size(kPhases)] = {};
  std::uint64_t count[std::size(kPhases)] = {};
};

PhaseSnapshot phase_snapshot() {
  PhaseSnapshot s;
  const std::vector<prof::PhaseTotals> totals = prof::collect_totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const char* name = prof::phase_name(static_cast<prof::Phase>(i));
    for (std::size_t k = 0; k < std::size(kPhases); ++k)
      if (std::strcmp(name, kPhases[k].name) == 0) {
        s.ns[k] = totals[i].total_ns;
        s.count[k] = totals[i].count;
      }
  }
  return s;
}

/// Moves the phase time between two snapshots out of `parent`'s self time.
void attribute_phases(Tracer& tr, Layer parent, const PhaseSnapshot& a,
                      const PhaseSnapshot& b) {
  for (std::size_t k = 0; k < std::size(kPhases); ++k) {
    const std::uint64_t ns = b.ns[k] - a.ns[k];
    tr.add(kPhases[k].layer, ns, b.count[k] - a.count[k]);
    tr.subtract(parent, ns);
  }
}

/// Per-scheduler counts of one round (Metrics::merge keeps the max of
/// `slots`, so the sums are kept here) and run_until time of all rounds.
struct KindTotals {
  std::uint64_t run_ns = 0;  ///< both run_until spans, phases included
  std::uint64_t slots = 0, fast_forwarded = 0, points = 0, preemptions = 0, migrations = 0;

  void add(const engine::Metrics& m) {
    slots += m.slots;
    fast_forwarded += m.fast_forwarded_slots;
    points += m.scheduling_points;
    preemptions += m.preemptions;
    migrations += m.migrations;
  }
};

Layer admit_layer(std::size_t k) {
  return k == 0 ? Layer::kPd2Admit : k == 1 ? Layer::kBfAdmit : Layer::kRunAdmit;
}
Layer first_run_layer(std::size_t k) {
  return k == 0 ? Layer::kPd2FirstRun : k == 1 ? Layer::kBfFirstRun : Layer::kRunFirstRun;
}
Layer run_layer(std::size_t k) {
  return k == 0 ? Layer::kPd2Run : k == 1 ? Layer::kBfRun : Layer::kRunRun;
}

/// Untraced and (in traced runs) traced rounds alternate for the whole
/// budget, so a slow spell of the host lands on both.
Report run_sim(const SimSpec& spec, const RunOptions& opts) {
  Report rep;
  std::vector<TaskSetInput> inputs;
  const double setup_s =
      median_seconds(kSetupRepeats, [&] { inputs = make_inputs(spec, opts.seed); });
  const std::uint64_t budget = static_cast<std::uint64_t>(opts.seconds * 1e9);
  const std::uint64_t start = now_ns();
  const std::size_t ops_per_round = inputs.size() * spec.kinds.size();
  std::string first_digest;
  const auto check_digest = [&](const Digest& d, const char* what) {
    if (first_digest.empty()) {
      first_digest = d.hex();
    } else if (d.hex() != first_digest) {
      rep.fail(std::string(spec.name) + ": " + what + " digest " + d.hex() +
               " != first round's " + first_digest);
    }
  };

  RoundSamples op_us;  // by operation: set i through one scheduler
  std::vector<double> slowdowns;
  const auto untraced_round = [&](bool check) {
    slowdowns.push_back(host_slowdown());
    const double slow = slowdowns.back();
    Digest d;
    std::size_t op = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (const SchedulerKind kind : spec.kinds) {
        const std::uint64_t t0 = now_ns();
        auto sim = make(kind, spec.processors, false);
        const bool admitted = admit_all(*sim, inputs[i]);
        sim->run_until(spec.horizon);
        const engine::Metrics& m = sim->metrics();
        op_us.add(op++, static_cast<double>(now_ns() - t0) * 1e-3 / slow);
        digest_row(d, kind, m);
        if (check) check_row(rep, spec, kind, i, admitted, m);
      }
    }
    rep.attempted += ops_per_round;
    check_digest(d, "untraced");
  };

  // Traced: admit, a first run_until(0) that only does the set-up the
  // scheduler defers to its first run (RUN builds its reduction tree
  // there) and the real run_until as separate spans, with the PD2 kernel
  // phases from obs::prof nested inside the run_until spans.  Splitting
  // at 0 keeps every metrics row identical to the untraced run; a split
  // inside the horizon adds a scheduling point to RUN's count.
  Tracer tr;
  tr.set_capture(!opts.trace_file.empty());
  KindTotals totals[3];
  std::uint64_t traced_ns = 0;
  double traced_baseline_ns = 0.0;
  const auto traced_round = [&](bool first) {
    const double slow = host_slowdown();
    const std::uint64_t before = traced_ns;
    prof::set_enabled(true);
    Digest d;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (const SchedulerKind kind : spec.kinds) {
        const std::size_t k = kind_index(kind);
        const std::uint64_t t0 = now_ns();
        auto sim = make(kind, spec.processors, false);
        const bool admitted = admit_all(*sim, inputs[i]);
        const std::uint64_t t1 = now_ns();
        tr.record(admit_layer(k), t0, t1);
        const PhaseSnapshot p0 = k == 0 ? phase_snapshot() : PhaseSnapshot{};
        const std::uint64_t t2 = now_ns();
        sim->run_until(0);
        const std::uint64_t t3 = now_ns();
        tr.record(first_run_layer(k), t2, t3);
        const PhaseSnapshot p1 = k == 0 ? phase_snapshot() : PhaseSnapshot{};
        const std::uint64_t t4 = now_ns();
        sim->run_until(spec.horizon);
        const std::uint64_t t5 = now_ns();
        tr.record(run_layer(k), t4, t5);
        if (k == 0) {
          const PhaseSnapshot p2 = phase_snapshot();
          attribute_phases(tr, first_run_layer(k), p0, p1);
          attribute_phases(tr, run_layer(k), p1, p2);
        }
        traced_ns += (t1 - t0) + (t3 - t2) + (t5 - t4);
        totals[k].run_ns += (t3 - t2) + (t5 - t4);
        const engine::Metrics& m = sim->metrics();
        digest_row(d, kind, m);
        if (first) {
          totals[k].add(m);
          check_row(rep, spec, kind, i, admitted, m);
          verify(rep, spec, kind, i, inputs[i], m);
        }
      }
    }
    prof::set_enabled(false);
    traced_baseline_ns += static_cast<double>(traced_ns - before) / slow;
    tr.set_capture(false);
    rep.attempted += ops_per_round;
    check_digest(d, "traced");
  };

  std::uint64_t rounds = 0;
  do {
    untraced_round(rounds == 0);
    if (opts.traced) traced_round(rounds == 0);
    ++rounds;
  } while (now_ns() - start < budget);
  const std::vector<double> latency = op_us.medians();
  const double round_us = op_us.sum_of_medians();

  if (!opts.expect_digest.empty() && opts.expect_digest != first_digest)
    rep.fail(std::string(spec.name) + ": digest " + first_digest + " != stored " +
             opts.expect_digest);
  rep.note("digest " + first_digest);
  rep.note("host_slowdown " + std::to_string(median(slowdowns)));
  std::size_t tasks = 0;
  for (const TaskSetInput& in : inputs) tasks += in.tasks.size();
  rep.note("ops_per_round " + std::to_string(ops_per_round) + ", rounds " +
           std::to_string(rounds) + ", mean_tasks_per_set " +
           std::to_string(static_cast<double>(tasks) / static_cast<double>(inputs.size())));

  if (!opts.traced) {
    rep.metric("ops_per_s", static_cast<double>(ops_per_round) / (round_us * 1e-6), "1/s");
    rep.metric("op_p50_us", quantile(latency, 0.50), "us");
    rep.metric("op_p90_us", quantile(latency, 0.90), "us");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  if (!opts.trace_file.empty() && !tr.write_chrome_trace(opts.trace_file))
    rep.fail("cannot write " + opts.trace_file);
  add_layer_metrics(rep, tr, rounds, traced_ns,
                    traced_baseline_ns / static_cast<double>(rounds) / (round_us * 1e3));
  for (const SchedulerKind kind : spec.kinds) {
    const KindTotals& t = totals[kind_index(kind)];
    const std::string tag = kind_tag(kind);
    const auto pts = static_cast<double>(t.points);
    const double run_ns = static_cast<double>(t.run_ns) / static_cast<double>(rounds);
    rep.metric(tag + ".sched_points", pts, "count");
    rep.metric(tag + ".ns_per_sched_point", pts > 0 ? run_ns / pts : 0.0, "ns");
    rep.metric(tag + ".preemptions", static_cast<double>(t.preemptions), "count");
    rep.metric(tag + ".migrations", static_cast<double>(t.migrations), "count");
    rep.metric(tag + ".slots_per_s",
               run_ns > 0 ? static_cast<double>(t.slots) / (run_ns * 1e-9) : 0.0, "1/s");
    if (kind == SchedulerKind::kPfair)
      rep.metric("pd2.fast_forwarded_share",
                 t.slots > 0 ? static_cast<double>(t.fast_forwarded) /
                                   static_cast<double>(t.slots)
                               : 0.0,
                 "ratio");
  }
  return rep;
}

}  // namespace

Report run_sim_pd2_16p(const RunOptions& opts) {
  SimSpec spec{"sim-pd2-16p", 16, 1000, {0.95}, 0.05, 0.33, 8, 120, 128,
               {SchedulerKind::kPfair}};
  if (opts.smoke) {
    spec.sets = 2;
    spec.horizon = 200;
  }
  return run_sim(spec, opts);
}

Report run_sim_roster(const RunOptions& opts) {
  SimSpec spec{"sim-roster", 8, 2520, {0.5, 0.85}, 0.05, 0.6, 8, 64, 192,
               {SchedulerKind::kPfair, SchedulerKind::kBf, SchedulerKind::kRun}};
  if (opts.smoke) {
    spec.sets = 2;
    spec.horizon = 240;
  }
  return run_sim(spec, opts);
}

}  // namespace bench
