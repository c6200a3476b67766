// RUN — Reduction to UNiprocessor [Regnier, Lima, Massa, Levin, Brandt,
// RTSS'11] — the second "successor" optimal scheduler (after BF) that
// beats per-quantum Pfair on scheduling-decision economy.
//
// Offline, the task set (rates r_i = e_i/p_i, sum <= M) is *reduced*:
//
//   1. pad the slack M - sum r_i with idle leaves — whole units shrink
//      the effective processor count, the fractional remainder becomes
//      one idle leaf (period = the largest task period, so it
//      introduces no boundary instants of its own);
//   2. PACK leaves first-fit-decreasing — (rate descending, node
//      index), on the one bin packer of partition/heuristics.h, each
//      server keeping its integer tick rate — into servers of rate
//      <= 1; rate-exactly-1 packs become roots;
//   3. DUAL each remaining pack sigma into a server sigma* of rate
//      1 - rate(sigma); the duals are the items of the next level.
//
// Each level's item rates sum to an integer (packing preserves the sum;
// dualizing n packs of total rate R yields n - R), so a single non-unit
// leftover is impossible and the reduction terminates in O(log n)
// levels with every chain ending at a unit root.
//
// Online, the selection follows the tree top-down: roots always
// execute; an executing pack EDF-picks the one client with remaining
// work/budget (earliest deadline, tie -> lower node id); a dual executes
// iff picked, and — the inversion at the heart of RUN — a pack executes
// iff its dual does NOT, *unconditionally* (a dual whose parent pack is
// idle does not execute, so its primal does).  At most M leaves are
// marked executing at any instant (checked in every build).
//
// A scheduling point is an instant at which some pick may change: a
// period boundary (releases, deadlines, budget refills), or the
// completion of a leaf's job or the exhaustion of a dual's budget, which
// changes its parent pack's inputs.  Only those packs are re-picked, in
// one parent-first pass (descending node index), and a change flows down
// through the duals it flips; a boundary re-picks every pack.  An
// instant where nothing changed — such as where an earlier run_until
// stopped — is not a scheduling point, so splitting a run never changes
// its metrics.
//
// Time is kept in integer "fine ticks" of 1/L slots, L = lcm of all
// admitted periods: every server rate is then an integral number of
// ticks per slot, so dual budgets (1 - rate) * (interval between
// consecutive deadlines of the primal subtree's leaves) and leaf job
// work e * L are exact int64s — no floating point anywhere, and the
// same admitted set always reproduces byte-identical segment logs.
// admit() maintains the running lcm and rejects tasks that would push
// it past kMaxLcm (or utilization past M): RUN's admission is
// capacity-checked, a documented contrast with PD2's accept-and-miss.
//
// Preemptions in a RUN schedule land at server boundaries rather than
// quantum boundaries, so the per-slot ScheduleTrace/verify_schedule
// machinery does not apply; the simulator instead logs exact service
// segments per task and verify_run_segments() checks, independently of
// the scheduler's own bookkeeping, that every job receives exactly
// e * L ticks inside its period window, that segments never overlap for
// one task, and that parallelism never exceeds M.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/task.h"
#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"

namespace pfair {

struct RunConfig {
  int processors = 1;
  bool record_segments = true;  ///< keep the per-task service segment log
};

/// One maximal interval of service: task `task` ran continuously over
/// [start, end) in fine ticks (1 slot = ticks_per_slot() ticks).
struct RunSegment {
  TaskId task = kNoTask;
  std::int64_t start = 0;
  std::int64_t end = 0;

  friend bool operator==(const RunSegment& a, const RunSegment& b) {
    return a.task == b.task && a.start == b.start && a.end == b.end;
  }
};

struct RunVerifyResult {
  bool ok = true;
  std::size_t violations = 0;
  std::string first_violation;

  void fail(std::string what) {
    ++violations;
    if (ok) first_violation = std::move(what);
    ok = false;
  }
};

/// Independent segment-log verification (the RUN analogue of
/// verify_schedule): for every task and every job window
/// [k*p, (k+1)*p) * ticks_per_slot fully inside the horizon, the summed
/// service must be exactly e * ticks_per_slot; per-task segments must be
/// sorted and non-overlapping; global parallelism must stay <= processors.
[[nodiscard]] RunVerifyResult verify_run_segments(
    const std::vector<RunSegment>& segments, const TaskSet& tasks,
    std::int64_t ticks_per_slot, Time horizon, int processors);

class RunSimulator : public engine::Simulator {
 public:
  explicit RunSimulator(RunConfig config = {});

  /// Capacity-checked, offline-only admission: rejects once the
  /// simulation has started, when utilization would exceed the
  /// processor count, or when the running period lcm would exceed
  /// kMaxLcm.  Dynamic join/leave/reweight inherit the rejecting
  /// defaults (can_dynamic() = false): refusals are well-defined.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override;
  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }
  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }

  [[nodiscard]] const TaskSet& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const std::vector<RunSegment>& segments() const noexcept {
    return segments_;
  }
  /// Fine ticks per slot (= lcm of admitted periods); valid after the
  /// first run_until.
  [[nodiscard]] std::int64_t ticks_per_slot() const noexcept { return ticks_; }
  /// Reduction depth (number of dual levels); valid after the first
  /// run_until.  0 means every pack was already a unit root.
  [[nodiscard]] int reduction_levels() const noexcept { return levels_; }

  /// Largest period lcm admit() accepts.  Chosen so that the budgets
  /// and job work the simulator forms (rate_num * interval <= lcm * max
  /// period) stay inside int64; run_until stops at the last slot whose
  /// tick (slot * lcm) fits.
  static constexpr std::int64_t kMaxLcm = 1'000'000'000;

 private:
  struct Node {
    enum class Kind : std::uint8_t { kLeaf, kPack, kDual };
    Kind kind = Kind::kLeaf;
    std::int64_t rate_num = 0;  ///< rate = rate_num / ticks_
    // Tree links (indices into nodes_; kNoNode = absent).  A node is
    // created after its clients and right after its primal, so a parent
    // always has the higher index.
    std::uint32_t parent = 0xffffffff;        ///< leaf/dual -> the pack it is a client of
    std::uint32_t primal = 0xffffffff;        ///< dual -> its pack
    std::vector<std::uint32_t> clients;       ///< pack -> children
    // Leaf state.
    TaskId task = kNoTask;          ///< kNoTask = idle leaf
    Time period = 0;                ///< real slots
    std::int64_t job_work = 0;      ///< e * ticks_ (per job)
    std::int64_t work = 0;          ///< remaining work of current job, ticks
    std::int64_t release_tick = 0;  ///< current job's release, ticks
    // Dual state.
    std::uint32_t cursors_begin = 0;  ///< [begin, end) of dual_cursors_: the
    std::uint32_t cursors_end = 0;    ///< distinct leaf periods of the subtree
    std::int64_t budget = 0;          ///< remaining dual budget, ticks
    // Shared EDF key in real slots, and the node's boundary cursor:
    // leaves: job deadline = next release; duals: next deadline of the
    // primal subtree, the next boundary at which the budget refills.
    Time deadline = 0;
  };

  /// The next multiple of `period` that no boundary has passed yet.
  struct PeriodCursor {
    Time period = 0;
    Time next = 0;
  };

  void build_tree();
  void process_boundary(Time t_real);
  /// Re-picks the dirty packs parent-first; returns whether the set of
  /// executing leaves changed (then started_, stopped_ and
  /// executing_leaves_ say how).
  bool select();
  void mark_dirty(std::uint32_t pack) {
    dirty_[pack] = 1;
    reselect_ = true;
  }
  void assign_processors();
  /// Emits an event at the current slot; the slot (a 64-bit division) is
  /// only computed when an observer is attached.
  void emit_now(obs::EventKind kind, TaskId task = kNoTask, ProcId proc = kNoProc,
                double value = 0.0) const {
    if (bus_ != nullptr)
      bus_->emit(kind, static_cast<Time>(now_tick_ / ticks_), task, proc, value);
  }
  /// `t` in ticks, saturated at the largest representable tick.
  [[nodiscard]] std::int64_t tick_of(Time t) const noexcept;

  TaskSet tasks_;
  RunConfig config_;
  std::int64_t ticks_ = 1;  ///< running lcm of admitted periods
  Time max_slot_ = 0;       ///< last slot whose tick fits in int64 (set at build)
  bool built_ = false;
  int levels_ = 0;

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> leaves_;      ///< leaf node index per creation order
  std::vector<std::uint32_t> duals_;
  std::vector<std::uint32_t> packs_desc_;  ///< every pack, highest index first
  std::vector<PeriodCursor> dual_cursors_;
  std::vector<PeriodCursor> boundary_cursors_;  ///< one per distinct task period

  std::int64_t now_tick_ = 0;
  Time pending_boundary_ = 0;  ///< next boundary to process, real slots
  std::int64_t boundary_tick_ = 0;  ///< tick_of(pending_boundary_)

  // Selection marks, one byte per node: exec_ = executing (packs: set by
  // their dual or as roots; clients: picked by their pack), dirty_ = a
  // pack whose pick must be recomputed at the next decision point.
  std::vector<std::uint8_t> exec_;
  std::vector<std::uint8_t> dirty_;
  bool reselect_ = false;  ///< some pack is dirty

  // Processor-assignment scratch (Sec.-4 accounting across segments).
  std::vector<std::uint32_t> executing_leaves_;   ///< node indices, ascending
  std::vector<std::uint32_t> started_;            ///< leaves that began executing, ascending
  std::vector<std::uint32_t> stopped_;            ///< leaves that stopped, ascending
  std::vector<std::uint32_t> proc_owner_;         ///< proc -> leaf node or kNoNode
  std::vector<ProcId> leaf_proc_;                 ///< node index -> last proc run on
  std::vector<std::uint8_t> proc_used_;
  std::vector<std::uint32_t> unplaced_;

  std::vector<RunSegment> segments_;
  std::int64_t busy_ticks_ = 0;

  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
};

}  // namespace pfair
