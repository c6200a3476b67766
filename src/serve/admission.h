// Tiered admission gate for the pfaird serving daemon.
//
// Every join (and reweight) request is decided by the cheapest test
// that can give a definitive answer for the scheduler being served:
//
//   Tier 0 — O(1) utilization arithmetic: the exact Eq.-(2) bound for
//            Pfair (sum of weights <= M, exact because PD2 is
//            optimal), the Lopez et al. (beta*M + 1)/(beta + 1) bound
//            for partitioned EDF-FF, the GFB density bound for global
//            EDF, U <= 1 for uniprocessor EDF, the Liu-Layland bound
//            for RM.
//   Tier 1 — O(n)/O(n log n) refinement: Eq.-(3) overhead-aware
//            inflation (PD2 fixed point / EDF-FF packing with inflated
//            costs); with overheads off, the partitioned kind runs the
//            simulator's own packing (first fit in admission order
//            under its algorithm's acceptance test).
//   Tier 2 — exact: the hyperperiod-exact global EDF/RM test
//            (serve/exact_gedf.h) under an event budget, or
//            response-time analysis for uniprocessor RM.  When the
//            budget runs out, the gate answers with Tier 1's verdict
//            marked `approx`.
//
// The controller mirrors the admitted task set in a flat table indexed
// by task id (serve/task_mirror.h) instead of reaching into the
// simulator, so decisions are pure functions of the request history —
// a recorded request log replays to byte-identical decisions on any
// host.  The mirror keeps ΣU and the committed count cached, so the
// Eq.-(2) test is O(1); GFB and Lopez scan its d weight classes for
// u_max.  Departures free capacity at the time the scheduler's leave
// rules dictate: the daemon schedules a pending release (a min-heap
// keyed (time, id, seq), so changes apply in time order without
// re-sorting the queue every advance) and the controller applies it
// when the clock reaches it.  A reweight counts the heavier of its old
// and new weight from the request until its switch-over, as the
// simulator does, so no join can use capacity the switch-over takes.
//
// Incremental Tier 2.  The exact tests are pure functions of the
// judged task *multiset* (the mirror canonicalizes every workload to
// (period, execution) order), so the controller memoizes their
// verdicts keyed on the mirror's O(1) multiset fingerprint.  A join,
// leave, or reweight moves the fingerprint by one add/subtract, so the
// storm pattern — decide, commit, decide the same rate again — hits
// the memo instead of re-simulating the hyperperiod.  Hits are *exact*: the cached
// GedfResult is bit-identical to what a cold run would return
// (verdict, events, and the budget-exceeded fallback all replay the
// same), so decision logs cannot tell a hit from a miss.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "engine/factory.h"
#include "overhead/inflation.h"  // OhTask
#include "overhead/params.h"
#include "serve/exact_gedf.h"
#include "serve/task_mirror.h"
#include "uniproc/uni_task.h"
#include "util/rational.h"
#include "util/types.h"

namespace pfair::engine {
class ThreadPool;
}  // namespace pfair::engine

namespace pfair::serve {

struct AdmissionConfig {
  engine::SchedulerKind kind = engine::SchedulerKind::kPfair;
  int processors = 1;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;  ///< uniproc / global-job flavour
  bool overhead_aware = false;  ///< run Tier 1 with Eq.-(3) inflation
  OverheadParams overhead;      ///< Eq.-(3) inputs when overhead_aware
  double cache_delay_us = 33.3; ///< D(T) charged to every task (paper mean)
  std::uint64_t exact_budget = 1u << 20;  ///< Tier-2 event budget (0 = Tier 2 off)
  int mirror_shards = 16;       ///< ignored; delete with the next change to benchmark/
  std::size_t memo_capacity = 1u << 16;  ///< Tier-2 memo entries (0 = memo off)
};

struct Decision {
  bool admit = false;
  int tier = 0;          ///< tier that produced the answer (0, 1, or 2)
  bool approx = false;   ///< Tier-2 budget exhausted: this is Tier 1's answer
  const char* reason = "";  ///< stable short token for the decision log
  std::uint64_t exact_events = 0;  ///< Tier-2 events spent (0 when Tier 2 unused)
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Applies every pending capacity release / reweight whose time has
  /// arrived.  Call before deciding at time `now`.
  void advance_to(Time now);

  /// Decides admission of a task of rate t on top of the committed set.
  /// Pure in the mirror (only the Tier-2 memo and its counters mutate).
  [[nodiscard]] Decision decide_join(const UniTask& t) const;

  /// Decides a reweight of committed task `id` to rate t: the old
  /// weight is excluded, the new one checked in its place.
  [[nodiscard]] Decision decide_reweight(TaskId id, const UniTask& t) const;

  /// Records an admitted task under the simulator's id.
  void commit(TaskId id, const UniTask& t);

  /// Schedules `id`'s capacity to free at time `at` (the scheduler's
  /// leave rules); the weight stays counted until advance_to(at).
  void schedule_release(TaskId id, Time at);

  /// Schedules `id` to switch to rate t at time `at`.  Until then the
  /// heavier of the old and new weight stays counted — a heavier t at
  /// once — matching PfairSimulator's orderly reweight, which reserves
  /// the same weight until the switch-over slot.
  void schedule_reweight(TaskId id, const UniTask& t, Time at);

  /// Speculatively evaluates the Tier-2 exact test for each candidate
  /// against the *current* mirror and fills the memo, on the calling
  /// thread.  Candidates whose decision would never reach Tier 2
  /// (invalid, Tier 0 decides, Tier 1 admits) are skipped.  Purely a
  /// cache warmer: decisions and logs are identical with or without it.
  /// The daemon does not call it; the pool parameter is ignored and
  /// stays only because benchmark/src/serve_workloads.cpp still passes
  /// nullptr.
  void prewarm_tier2(const std::vector<std::pair<UniTask, TaskId>>& candidates,
                     engine::ThreadPool* pool) const;

  [[nodiscard]] Rational total_weight() const noexcept { return mirror_.total(); }
  [[nodiscard]] std::size_t committed() const noexcept { return mirror_.size(); }
  [[nodiscard]] const AdmissionConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t memo_hits() const noexcept { return memo_hits_; }
  [[nodiscard]] std::uint64_t memo_misses() const noexcept { return memo_misses_; }

  // --- per-tier probes (tests and the daemon's tier accounting) ---
  /// Tier-0 answer, or no value when the O(1) bounds cannot decide.
  [[nodiscard]] std::optional<Decision> tier0(const UniTask& t, TaskId exclude = kNoTask) const;
  /// Tier-1 answer (always decides; its reject may be overturned by
  /// Tier 2 for global EDF/RM).
  [[nodiscard]] Decision tier1(const UniTask& t, TaskId exclude = kNoTask) const;
  /// Tier-2 exact answer for the kinds that have one.
  [[nodiscard]] std::optional<Decision> tier2(const UniTask& t, TaskId exclude = kNoTask) const;

 private:
  struct PendingChange {
    Time at = 0;
    TaskId id = kNoTask;
    std::uint64_t seq = 0;  ///< submission order: the (at, id) tie-break
    bool remove = true;     ///< false = reweight to `task`
    UniTask task;
  };
  struct PendingAfter {
    [[nodiscard]] bool operator()(const PendingChange& a,
                                  const PendingChange& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.id != b.id) return a.id > b.id;
      return a.seq > b.seq;
    }
  };
  /// Memoized Tier-2 verdict for one task multiset.  Exactly one of
  /// the two members is meaningful per controller (kind is fixed).
  struct CachedExact {
    GedfResult gedf;     ///< global EDF/RM simulation result
    bool rm_ok = false;  ///< uniprocessor RM response-time verdict
  };
  struct FingerprintHash {
    [[nodiscard]] std::size_t operator()(const MirrorFingerprint& fp) const noexcept {
      return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9E3779B97F4A7C15ull));
    }
  };

  [[nodiscard]] Decision decide(const UniTask& t, TaskId exclude) const;
  /// Processors the gate judges against (1 for the uniproc stacks).
  [[nodiscard]] int gate_processors() const noexcept;
  /// Eq.-(3) inputs for Tier 1: the configured overheads, or identity
  /// inflation (all-zero costs) when overheads are off.
  [[nodiscard]] OverheadParams tier1_params() const;
  /// Same workload in Eq.-(3) microsecond units (quantum-scaled for
  /// Pfair; cache delay zeroed when overheads are off).
  [[nodiscard]] std::vector<OhTask> oh_workload(const UniTask& extra, TaskId exclude) const;
  /// True when this (kind, algorithm) has a Tier-2 exact test at all.
  [[nodiscard]] bool tier2_applies() const noexcept;
  /// The exact Tier-2 computation for one candidate, memo-free.  Pure.
  [[nodiscard]] CachedExact tier2_compute(const UniTask& t, TaskId exclude) const;
  /// Memo lookup + fill around tier2_compute.
  [[nodiscard]] CachedExact tier2_cached(const UniTask& t, TaskId exclude) const;
  /// Tier 2 for `t`.  A verdict out of budget answers Tier 1's
  /// decision marked approx: `tier1_answer` when the caller has it
  /// (decide() does), else computed here.
  [[nodiscard]] std::optional<Decision> tier2_answer(const UniTask& t, TaskId exclude,
                                                     const Decision* tier1_answer) const;
  [[nodiscard]] Decision tier2_decision(const CachedExact& e, const UniTask& t,
                                        TaskId exclude, const Decision* tier1_answer) const;

  AdmissionConfig config_;
  TaskMirror mirror_;
  std::priority_queue<PendingChange, std::vector<PendingChange>, PendingAfter> pending_;
  std::uint64_t pending_seq_ = 0;
  // The memo is a cache, not state: decisions are byte-identical with
  // it on, off, or cleared at any point, so mutating it from const
  // decide paths keeps the "pure function of request history" contract.
  mutable std::unordered_map<MirrorFingerprint, CachedExact, FingerprintHash> memo_;
  mutable std::uint64_t memo_hits_ = 0;
  mutable std::uint64_t memo_misses_ = 0;
};

}  // namespace pfair::serve
