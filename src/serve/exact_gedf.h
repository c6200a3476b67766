// Exact global-EDF/RM schedulability for synchronous periodic
// implicit-deadline task systems (the Tier-2 test of the admission
// gate; after Goossens & Meumeu Yomsi, see PAPERS.md).
//
// For a *deterministic* global scheduler, a synchronous periodic system
// is schedulable iff no deadline is missed in [0, H], H = lcm of the
// periods: under implicit deadlines every job released before H must
// complete by H, so a miss-free prefix ends in exactly the initial
// state and the schedule repeats.  The test therefore simulates
// preemptive global EDF (or fixed-priority RM) event by event — the
// running set only changes at job releases and completions — and
// reports kSchedulable on a clean hyperperiod, kUnschedulable at the
// first miss, or kBudgetExceeded when the event budget runs out before
// time H (hyperperiods explode combinatorially; the admission gate
// falls back to its Tier-1 answer, marked approximate).
//
// Tie-breaking matches GlobalJobSimulator exactly (deadline, then
// period, execution and task index, for EDF; period, execution and task
// index, for RM), so the verdict is a statement about the scheduler the
// daemon actually serves — the differential test in
// tests/serve/exact_gedf_test.cpp holds the two to each other.  The
// test simulates its input in canonical (period, execution) order, so
// the verdict is the same for every ordering of the same tasks.
#pragma once

#include <cstdint>
#include <vector>

#include "uniproc/uni_sim.h"  // UniAlgorithm
#include "uniproc/uni_task.h"
#include "util/types.h"

namespace pfair::serve {

enum class GedfVerdict : std::uint8_t {
  kSchedulable,     ///< miss-free through one full hyperperiod — exact
  kUnschedulable,   ///< a deadline miss was found (see first_miss)
  kBudgetExceeded,  ///< ran out of events before reaching H — no verdict
};

struct GedfResult {
  GedfVerdict verdict = GedfVerdict::kBudgetExceeded;
  Time hyperperiod = 0;  ///< H actually required (may be saturated)
  Time simulated = 0;    ///< time reached when the test stopped
  std::uint64_t events = 0;  ///< scheduler events processed
  Time first_miss = -1;  ///< miss time when kUnschedulable
};

/// Stable lower-case verdict name ("schedulable", "unschedulable",
/// "budget-exceeded") for decision logs.
[[nodiscard]] const char* to_string(GedfVerdict v) noexcept;

/// Runs the exact test for `tasks` on `m` processors under global
/// `algorithm` (preemptive, deterministic tie-break).  `max_events`
/// bounds the work: each event is one release or completion boundary
/// and costs O(m + log n) per job released or completed there: one or
/// two winner-tree paths of a fixed log2(n) steps each, and a place
/// among at most m running jobs.  Invalid tasks are rejected
/// immediately (no budget spent).  Total utilization
/// is not checked here: above m the simulation finds a miss unless the
/// budget runs out first, and the admission gate's Tier 0 rejects such
/// sets before Tier 2 runs.  When H saturates and a release would pass
/// the largest Time before H, the test stops with kBudgetExceeded.
[[nodiscard]] GedfResult exact_global_schedulable(
    const std::vector<UniTask>& tasks, int m,
    UniAlgorithm algorithm = UniAlgorithm::kEDF, std::uint64_t max_events = 1u << 20);

}  // namespace pfair::serve
