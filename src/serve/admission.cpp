#include "serve/admission.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "obs/prof.h"
#include "overhead/inflation.h"
#include "uniproc/analysis.h"
#include "util/math.h"

namespace pfair::serve {

namespace {

using engine::SchedulerKind;
using Side = WeightSum::Side;

[[nodiscard]] Decision yes(int tier, std::string_view reason) noexcept {
  return Decision{true, tier, false, reason, 0};
}
[[nodiscard]] Decision no(int tier, std::string_view reason) noexcept {
  return Decision{false, tier, false, reason, 0};
}

/// The refusal of a sum that is not within its bound: `reason` when it is
/// above, and `overflow`, marked approx, when the bound lies inside the
/// interval of a sum past int64.
[[nodiscard]] Decision refuse(int tier, Side side, std::string_view reason) noexcept {
  if (side == Side::kUnknown) return Decision{false, tier, true, "overflow", 0};
  return no(tier, reason);
}

}  // namespace

Rational AdmissionController::total_weight() const {
  const WeightSum& sum = mirror_.total();
  if (const std::optional<WeightSum::Fraction> f = sum.fraction();
      f.has_value() && f->num <= std::numeric_limits<std::int64_t>::max())
    return Rational(static_cast<std::int64_t>(f->num), f->den);
  constexpr std::int64_t kBillion = 1'000'000'000;
  return Rational(static_cast<std::int64_t>(sum.floor_billionths()), kBillion);
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  if (config_.processors < 1) config_.processors = 1;
}

int AdmissionController::gate_processors() const noexcept {
  // Uniprocessor stacks always judge against one processor no matter
  // what the daemon was started with.
  switch (config_.kind) {
    case SchedulerKind::kUniproc:
    case SchedulerKind::kCbs:
      return 1;
    default:
      return config_.processors;
  }
}

OverheadParams AdmissionController::tier1_params() const {
  if (config_.overhead_aware) return config_.overhead;
  // Identity inflation: zero context switch, zero scheduling-cost
  // tables.  Tier 1 then reduces to the plain (overhead-free) test —
  // e.g. the utilization sum for uniprocessor EDF.
  OverheadParams p;
  p.context_switch_us = 0.0;
  p.quantum_us = config_.overhead.quantum_us;
  p.sched = SchedCostModel{};
  return p;
}

std::vector<OhTask> AdmissionController::oh_workload(const UniTask& extra,
                                                     TaskId exclude) const {
  // Pfair tasks are stated in quanta; the Eq.-(3) machinery works in
  // microseconds, so scale by the quantum.  The job-level kinds use
  // abstract time units the benches already treat as microseconds.
  const double scale = config_.kind == SchedulerKind::kPfair ? config_.overhead.quantum_us : 1.0;
  const double delay = config_.overhead_aware ? config_.cache_delay_us : 0.0;
  const std::vector<UniTask> tasks = mirror_.workload_with(extra, exclude);
  std::vector<OhTask> out;
  out.reserve(tasks.size());
  for (const UniTask& t : tasks)
    out.push_back(OhTask{static_cast<double>(t.execution) * scale,
                         static_cast<double>(t.period) * scale, delay});
  return out;
}

void AdmissionController::commit(TaskId id, const UniTask& t) {
  mirror_.upsert(id, t);
}

void AdmissionController::schedule_release(TaskId id, Time at) {
  note_pending(id);
  pending_.push(PendingChange{at, id, pending_seq_++, true, UniTask{}});
}

void AdmissionController::note_pending(TaskId id) {
  if (id >= pending_by_id_.size()) pending_by_id_.resize(std::size_t{id} + 1, 0);
  ++pending_by_id_[id];
}

void AdmissionController::schedule_reweight(TaskId id, const UniTask& t, Time at) {
  const UniTask* cur = mirror_.find(id);
  if (cur != nullptr && ratio_less(cur->execution, cur->period, t.execution, t.period))
    mirror_.upsert(id, t);  // a heavier weight counts from the request on
  note_pending(id);
  pending_.push(PendingChange{at, id, pending_seq_++, false, t});
}

void AdmissionController::advance_to(Time now) {
  // The heap pops in (time, id, submission) order — the exact order the
  // PR-8 stable sort applied changes in — but pays O(log k) per due
  // change instead of re-sorting the whole queue on every advance.
  while (!pending_.empty() && pending_.top().at <= now) {
    const PendingChange c = pending_.top();
    pending_.pop();
    --pending_by_id_[c.id];
    const UniTask* cur = mirror_.find(c.id);
    if (cur == nullptr) continue;  // task already gone
    if (c.remove) {
      mirror_.erase(c.id);
    } else {
      mirror_.upsert(c.id, c.task);
    }
  }
}

Decision AdmissionController::decide_join(const UniTask& t) const {
  return decide(t, kNoTask);
}

Decision AdmissionController::decide_reweight(TaskId id, const UniTask& t) const {
  if (mirror_.find(id) == nullptr) return no(0, "unknown-task");
  if (pending_by_id_.size() > id && pending_by_id_[id] > 0) return no(0, "pending-change");
  return decide(t, id);
}

Decision AdmissionController::decide(const UniTask& t, TaskId exclude) const {
  if (!t.valid()) return no(0, "invalid");
  if (const std::optional<Decision> d0 = tier0(t, exclude)) return *d0;
  const Decision d1 = tier1(t, exclude);
  // Every Tier-1 test is sufficient, so its admits are safe to trust;
  // only its (possibly provisional) rejects are worth escalating, and
  // only for the kinds that have an exact Tier-2 test.
  if (d1.admit) return d1;
  if (const std::optional<Decision> d2 = tier2_answer(t, exclude, &d1)) return *d2;
  return d1;
}

std::optional<Decision> AdmissionController::tier0(const UniTask& t, TaskId exclude) const {
  if (!t.valid()) return no(0, "invalid");
  const int m = gate_processors();
  const WeightSum::View after = mirror_.total_with(t, exclude);
  const Side capacity = after.against(m);
  switch (config_.kind) {
    case SchedulerKind::kPfair:
    case SchedulerKind::kWrr:
      // Eq. (2) is exact for PD2 (optimal), so both sides decide; WRR
      // gets the same capacity gate (it offers no deadline guarantee
      // for the gate to strengthen).
      if (capacity != Side::kWithin) return refuse(0, capacity, "eq2");
      if (config_.kind == SchedulerKind::kWrr || !config_.overhead_aware)
        return yes(0, "eq2");
      return std::nullopt;  // overhead-aware: Eq. (3) must confirm
    case SchedulerKind::kBf:
    case SchedulerKind::kRun:
      // Both are optimal (every set with sum wt <= M is schedulable),
      // so Eq. (2) is exact and Tier 0 always decides; neither has an
      // Eq.-(3) overhead model to defer to.
      return capacity == Side::kWithin ? yes(0, "eq2") : refuse(0, capacity, "eq2");
    case SchedulerKind::kUniproc:
      if (config_.algorithm == UniAlgorithm::kRM) {
        if (capacity != Side::kWithin) return refuse(0, capacity, "utilization");
        if (!config_.overhead_aware &&
            after.against_double(rm_utilization_bound(mirror_.count_excluding(exclude) + 1)) ==
                Side::kWithin)
          return yes(0, "ll-bound");
        return std::nullopt;  // between LL and 1: exact RTA decides
      }
      [[fallthrough]];
    case SchedulerKind::kCbs:
      // EDF on one processor: U <= 1 is exact [Liu & Layland].
      if (capacity != Side::kWithin) return refuse(0, capacity, "edf-utilization");
      if (!config_.overhead_aware) return yes(0, "edf-utilization");
      return std::nullopt;
    case SchedulerKind::kPartitioned: {
      if (capacity != Side::kWithin) return refuse(0, capacity, "utilization");
      // Lopez's bound holds for first-fit EDF only; RM and the
      // overhead-aware packing leave every admit to the packing.
      if (config_.overhead_aware || config_.algorithm == UniAlgorithm::kRM)
        return std::nullopt;
      // (beta*M + 1)/(beta + 1), beta = floor(1/u_max).
      const UniTask u_max = mirror_.u_max_with(t, exclude);
      const std::int64_t beta = std::max<std::int64_t>(1, u_max.period / u_max.execution);
      if (after.against(Int128{beta} * m + 1, beta + 1) == Side::kWithin)
        return yes(0, "lopez");
      return std::nullopt;  // above the bound: try the actual packing
    }
    case SchedulerKind::kGlobalJob: {
      if (capacity != Side::kWithin) return refuse(0, capacity, "utilization");
      if (config_.algorithm == UniAlgorithm::kEDF && !config_.overhead_aware) {
        // m - (m - 1)*u_max = (m*p - (m - 1)*e)/p.
        const UniTask u_max = mirror_.u_max_with(t, exclude);
        if (after.against(Int128{m} * u_max.period - Int128{m - 1} * u_max.execution,
                          u_max.period) == Side::kWithin)
          return yes(0, "gfb");
      }
      return std::nullopt;  // Dhall territory: exact test decides
    }
  }
  return std::nullopt;
}

Decision AdmissionController::tier1(const UniTask& t, TaskId exclude) const {
  if (!t.valid()) return no(1, "invalid");
  const int m = gate_processors();
  const OverheadParams params = tier1_params();
  switch (config_.kind) {
    case SchedulerKind::kPfair: {
      const std::vector<OhTask> tasks = oh_workload(t, exclude);
      const std::optional<int> need = pd2_min_processors(tasks, params, m);
      const bool ok = need.has_value() && *need <= m;
      return ok ? yes(1, "eq3-pd2") : no(1, "eq3-pd2");
    }
    case SchedulerKind::kWrr:
    case SchedulerKind::kBf:
    case SchedulerKind::kRun: {
      const Side capacity = mirror_.total_with(t, exclude).against(m);
      return capacity == Side::kWithin ? yes(1, "eq2") : refuse(1, capacity, "eq2");
    }
    case SchedulerKind::kUniproc:
      if (config_.algorithm == UniAlgorithm::kRM) {
        // LL on (inflated) utilizations; a reject here is provisional —
        // Tier 2's response-time analysis has the last word.
        const std::vector<OhTask> tasks = oh_workload(t, exclude);
        double u = 0.0;
        for (const OhTask& task : tasks)
          u += inflate_edf_us(task, config_.overhead_aware ? config_.cache_delay_us : 0.0,
                              params, tasks.size()) /
               task.period_us;
        const bool ok = u <= rm_utilization_bound(tasks.size());
        return ok ? yes(1, "ll-bound") : no(1, "ll-bound");
      }
      [[fallthrough]];
    case SchedulerKind::kCbs: {
      const std::vector<OhTask> tasks = oh_workload(t, exclude);
      double u = 0.0;
      for (const OhTask& task : tasks)
        u += inflate_edf_us(task, config_.overhead_aware ? config_.cache_delay_us : 0.0,
                            params, tasks.size()) /
             task.period_us;
      const std::string_view reason = config_.overhead_aware ? "eq3-edf" : "edf-utilization";
      return u <= 1.0 ? yes(1, reason) : no(1, reason);
    }
    case SchedulerKind::kPartitioned: {
      if (config_.overhead_aware) {
        const EdfFfResult r = edf_ff_partition(oh_workload(t, exclude), params, m);
        return r.feasible ? yes(1, "ff-packed") : no(1, "ff-unpacked");
      }
      // The simulator's own packing: its heuristic (the daemon serves the
      // default) and its algorithm's acceptance test over the committed
      // tasks in id order, which is their admission order, candidate last.
      const UniPartitionResult r =
          partition_uni(mirror_.by_id_with(t, exclude), m, PartitionConfig{}.heuristic,
                        acceptance_for(config_.algorithm));
      return r.assignment.back() >= 0 ? yes(1, "ff-packed") : no(1, "ff-unpacked");
    }
    case SchedulerKind::kGlobalJob: {
      if (config_.algorithm == UniAlgorithm::kEDF && config_.overhead_aware) {
        // GFB over inflated utilizations.  Under global EDF any task
        // may preempt any other, so every task is charged the full
        // cache delay.
        const std::vector<OhTask> tasks = oh_workload(t, exclude);
        double u = 0.0;
        double u_max = 0.0;
        for (const OhTask& task : tasks) {
          const double ui =
              inflate_edf_us(task, config_.cache_delay_us, params, tasks.size()) /
              task.period_us;
          u += ui;
          u_max = std::max(u_max, ui);
        }
        if (u > static_cast<double>(m)) return no(1, "eq3-utilization");
        if (u <= static_cast<double>(m) - static_cast<double>(m - 1) * u_max)
          return yes(1, "eq3-gfb");
      }
      // No sufficient bound holds; this reject is provisional and the
      // exact Tier-2 test normally overrides it.
      return no(1, "no-bound");
    }
  }
  return no(1, "no-bound");
}

bool AdmissionController::tier2_applies() const noexcept {
  return config_.kind == SchedulerKind::kGlobalJob ||
         (config_.kind == SchedulerKind::kUniproc &&
          config_.algorithm == UniAlgorithm::kRM);
}

AdmissionController::CachedExact AdmissionController::tier2_compute(
    const UniTask& t, TaskId exclude) const {
  CachedExact e;
  if (config_.kind == SchedulerKind::kGlobalJob) {
    e.gedf = exact_global_schedulable(mirror_.workload_with(t, exclude),
                                      gate_processors(), config_.algorithm,
                                      config_.exact_budget);
  } else {
    e.rm_ok = rm_schedulable_exact(mirror_.workload_with(t, exclude));
  }
  return e;
}

AdmissionController::CachedExact AdmissionController::tier2_cached(
    const UniTask& t, TaskId exclude) const {
  if (config_.memo_capacity == 0) {
    ++memo_misses_;
    return tier2_compute(t, exclude);
  }
  // The exact tests are pure functions of the judged multiset (the
  // workload is canonical in (period, execution) order), so the
  // mirror's multiset fingerprint keys them completely: a hit returns
  // the bit-identical GedfResult a cold run would have produced.
  const MirrorFingerprint fp = mirror_.fingerprint_with(t, exclude);
  const auto it = memo_.find(fp);
  if (it != memo_.end()) {
    ++memo_hits_;
    return it->second;
  }
  ++memo_misses_;
  const CachedExact e = tier2_compute(t, exclude);
  if (memo_.size() >= config_.memo_capacity) memo_.clear();
  memo_.emplace(fp, e);
  return e;
}

Decision AdmissionController::tier2_decision(const CachedExact& e, const UniTask& t,
                                             TaskId exclude, const Decision* tier1_answer) const {
  if (config_.kind == SchedulerKind::kGlobalJob) {
    if (e.gedf.verdict == GedfVerdict::kBudgetExceeded) {
      // Out of budget before reaching H: fall back to Tier 1's answer,
      // marked approximate.
      Decision d = tier1_answer != nullptr ? *tier1_answer : tier1(t, exclude);
      d.approx = true;
      d.exact_events = e.gedf.events;
      return d;
    }
    Decision d = e.gedf.verdict == GedfVerdict::kSchedulable ? yes(2, "exact-gedf")
                                                             : no(2, "exact-gedf");
    d.exact_events = e.gedf.events;
    return d;
  }
  return e.rm_ok ? yes(2, "rm-exact") : no(2, "rm-exact");
}

std::optional<Decision> AdmissionController::tier2(const UniTask& t, TaskId exclude) const {
  return tier2_answer(t, exclude, nullptr);
}

std::optional<Decision> AdmissionController::tier2_answer(const UniTask& t, TaskId exclude,
                                                          const Decision* tier1_answer) const {
  if (!t.valid() || config_.exact_budget == 0 || !tier2_applies()) return std::nullopt;
  // The gate keeps no clock, so the span belongs to no slot.
  const obs::prof::ProfScope timing(obs::prof::Phase::kServeTier2);
  return tier2_decision(tier2_cached(t, exclude), t, exclude, tier1_answer);
}

void AdmissionController::prewarm_tier2(
    const std::vector<std::pair<UniTask, TaskId>>& candidates,
    engine::ThreadPool* /*unused*/) const {
  if (config_.memo_capacity == 0 || config_.exact_budget == 0 || !tier2_applies())
    return;
  for (const auto& [t, exclude] : candidates) {
    if (!t.valid()) continue;
    // decide_reweight answers "unknown-task" before Tier 2.
    if (exclude != kNoTask && mirror_.find(exclude) == nullptr) continue;
    if (tier0(t, exclude).has_value()) continue;
    if (tier1(t, exclude).admit) continue;
    const MirrorFingerprint fp = mirror_.fingerprint_with(t, exclude);
    if (memo_.find(fp) != memo_.end()) continue;  // also skips repeats
    const CachedExact e = tier2_compute(t, exclude);
    if (memo_.size() >= config_.memo_capacity) memo_.clear();
    memo_.emplace(fp, e);
  }
}

}  // namespace pfair::serve
