// Umbrella header: the full public API of the pfair library.
//
//   #include "pfair.h"
//
// Subsystem map (see DESIGN.md for the full inventory):
//   core/      Pfair model: windows, priorities (PD2/PD/PF/EPDF), tasks,
//              lag, dynamic-join/leave rules, supertasks + packing
//   engine/    runtime substrate shared by every simulator: unified
//              metrics, simulator interface, overhead timing,
//              comparison driver, experiment harness
//   sim/       global schedulers: quantum-driven Pfair simulator,
//              job-level global EDF/RM, WRR baseline, trace verifier
//   uniproc/   uniprocessor substrate: EDF/RM simulators + analysis,
//              partitioned runtime, CBS servers
//   partition/ bin-packing heuristics + acceptance tests + bounds
//   overhead/  Eq.-(3) inflation, cost tables, calibration, quantum
//              tradeoff
//   workload/  reproducible random workload generators
//   sync/      quantum-boundary locking, lock-free retry bounds
#pragma once

#include "core/dynamics.h"
#include "core/lag.h"
#include "core/priority.h"
#include "core/supertask.h"
#include "core/supertask_packing.h"
#include "core/task.h"
#include "core/window_diagram.h"
#include "core/windows.h"
#include "overhead/calibrate.h"
#include "overhead/inflation.h"
#include "overhead/params.h"
#include "overhead/quantum_tradeoff.h"
#include "engine/compare.h"
#include "engine/harness.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "partition/heuristics.h"
#include "partition/uni_partition.h"
#include "sim/global_job_sim.h"
#include "sim/pfair_sim.h"
#include "sim/trace.h"
#include "sim/verifier.h"
#include "sim/wrr_sim.h"
#include "sync/quantum_lock.h"
#include "uniproc/analysis.h"
#include "uniproc/cbs_sim.h"
#include "uniproc/partitioned_sim.h"
#include "uniproc/uni_sim.h"
#include "uniproc/uni_task.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"
#include "workload/generator.h"
