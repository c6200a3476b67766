// The simulator factory: one construction path for every scheduler
// stack in the repo.
//
// Before this existed, every bench, example, and comparison driver
// hardcoded one of six concrete constructors (PfairSimulator,
// PartitionedSimulator, GlobalJobSimulator, UniprocSimulator,
// WrrSimulator, CbsSimulator), each with its own config spelling.  The
// factory names each stack with a SchedulerKind, gathers every stack's
// named-field config struct into one SimulatorConfig, and builds an
// empty simulator ready for Simulator::admit() — so a driver can be
// parameterised by kind (CLI flags, sweep tables, registries) instead
// of by type.
//
//   engine::SimulatorConfig cfg;
//   cfg.pfair.processors = 4;
//   auto sim = engine::make_simulator(engine::SchedulerKind::kPfair, cfg);
//   sim->admit(engine::task_spec(2, 5));
//   sim->run_until(1000);
//
// Kinds also round-trip through strings ("pfair", "partitioned",
// "global-job", "uniproc", "wrr", "cbs", "bf", "run") for command-line
// use — see tools/pfair_trace's `simulate` subcommand.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "engine/simulator.h"
#include "sim/bf_sim.h"
#include "sim/global_job_sim.h"
#include "sim/pfair_sim.h"
#include "sim/run_sim.h"
#include "sim/wrr_sim.h"
#include "uniproc/cbs_sim.h"
#include "uniproc/partitioned_sim.h"
#include "uniproc/uni_sim.h"

namespace pfair::engine {

enum class SchedulerKind : std::uint8_t {
  kPfair,        ///< quantum-driven global Pfair (PD2/PD/PF/EPDF via PfairConfig)
  kPartitioned,  ///< bin-packed ensemble of uniprocessor EDF/RM schedulers
  kGlobalJob,    ///< global job-level EDF/RM (the Dhall straw man)
  kUniproc,      ///< event-driven uniprocessor EDF/RM
  kWrr,          ///< weighted round-robin on quantised weights
  kCbs,          ///< CBS servers + hard periodic tasks on one EDF processor
  kBf,           ///< boundary-fair: optimal, decisions only at period boundaries
  kRun,          ///< RUN: optimal, offline reduction tree + online server EDF
};

/// The registry name of a kind ("pfair", "partitioned", ...).
[[nodiscard]] const char* to_string(SchedulerKind kind) noexcept;

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<SchedulerKind> scheduler_kind_from_string(
    std::string_view name) noexcept;

/// The uniproc / global-job flavour named "edf" or "rm"; nullopt for
/// any other name.
[[nodiscard]] std::optional<UniAlgorithm> uni_algorithm_from_string(
    std::string_view name) noexcept;

/// Every registered kind, in registry order (stable across runs; handy
/// for CLI listings and exhaustive tests).
[[nodiscard]] const std::vector<SchedulerKind>& all_scheduler_kinds();

/// One named-field config per scheduler stack; make_simulator reads only
/// the member matching the requested kind, so a single SimulatorConfig
/// can parameterise a whole comparison sweep.
struct SimulatorConfig {
  PfairConfig pfair;
  PartitionConfig partitioned;
  GlobalJobConfig global_job;
  UniSimConfig uniproc;
  WrrConfig wrr;
  CbsConfig cbs;
  BfConfig bf;
  RunConfig run;

  /// Sets every multiprocessor kind's processor count to `m` (the
  /// partitioned kind's upper bound on bins).  uniproc and cbs run on one
  /// processor and have no count.  A driver with one processor flag for
  /// any kind sets it here, so no kind is left on its default of one.
  void set_processors(int m) noexcept {
    pfair.processors = m;
    partitioned.max_processors = m;
    global_job.processors = m;
    wrr.processors = m;
    bf.processors = m;
    run.processors = m;
  }
};

/// Builds an empty simulator of `kind`; load it via Simulator::admit()
/// (every stack accepts admission at time 0).  Never returns nullptr;
/// throws std::invalid_argument — with a message naming the kind, the
/// field, and the offending value — when the kind's config section is
/// unusable (processors/frame < 1, max_processors < 1, CBS server with
/// Q < 1 or T < 1).  Exact messages are part of the tested contract
/// (tests/engine/factory_test.cpp).
[[nodiscard]] std::unique_ptr<Simulator> make_simulator(SchedulerKind kind,
                                                        const SimulatorConfig& config = {});

}  // namespace pfair::engine
