#include "qa/shrink.h"

#include <numeric>
#include <utility>

namespace pfair::qa {

namespace {

/// Well-formed and feasible — the invariant every accepted
/// transformation must preserve (shrinking onto an infeasible set would
/// trade the original bug for a trivial overload failure).
bool well_formed(const FuzzCase& c) { return validate(c).empty(); }

/// Removes initial task `index`, remapping the leave script (leaves of
/// the dropped task go with it).
FuzzCase drop_task(const FuzzCase& c, TaskId index) {
  FuzzCase out = c;
  out.tasks = TaskSet{};
  for (TaskId id = 0; id < c.tasks.size(); ++id) {
    if (id != index) out.tasks.add(c.tasks[id]);
  }
  out.leaves.clear();
  for (const LeaveEvent& l : c.leaves) {
    if (l.task == index) continue;
    LeaveEvent moved = l;
    if (moved.task > index) --moved.task;
    out.leaves.push_back(moved);
  }
  return out;
}

FuzzCase replace_task(const FuzzCase& c, TaskId index, std::int64_t e, std::int64_t p) {
  FuzzCase out = c;
  out.tasks = TaskSet{};
  for (TaskId id = 0; id < c.tasks.size(); ++id) {
    Task t = c.tasks[id];
    if (id == index) {
      t.execution = e;
      t.period = p;
    }
    out.tasks.add(t);
  }
  return out;
}

}  // namespace

FailPredicate same_oracle_predicate(std::string oracle) {
  return [oracle = std::move(oracle)](const FuzzCase& c) -> std::optional<CaseVerdict> {
    for (const OracleReport& r : run_oracles(c)) {
      if (r.violated && r.name == oracle) {
        CaseVerdict v;
        v.ok = false;
        v.oracle = r.name;
        v.detail = r.detail;
        return v;
      }
    }
    return std::nullopt;
  };
}

ShrinkResult Shrinker::shrink(const FuzzCase& failing) const {
  ShrinkResult res;
  res.minimal = failing;
  const std::optional<CaseVerdict> initial = still_fails_(failing);
  if (!initial.has_value()) return res;  // not failing: nothing to do
  res.verdict = *initial;

  // Accepts `candidate` iff it stays well-formed and still fails.
  const auto accept = [&](FuzzCase candidate) {
    if (!well_formed(candidate)) return false;
    const std::optional<CaseVerdict> v = still_fails_(candidate);
    if (!v.has_value()) return false;
    res.minimal = std::move(candidate);
    res.verdict = *v;
    ++res.transformations;
    return true;
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // 1. Drop whole tasks, scanning from the front; stay on the same
    //    index after an accept (the next task shifted into it).
    for (TaskId id = 0; id < res.minimal.tasks.size();) {
      if (res.minimal.tasks.size() > 1 && accept(drop_task(res.minimal, id))) {
        changed = true;
      } else {
        ++id;
      }
    }

    // 2. Drop script events.
    for (std::size_t i = 0; i < res.minimal.joins.size();) {
      FuzzCase candidate = res.minimal;
      candidate.joins.erase(candidate.joins.begin() + static_cast<std::ptrdiff_t>(i));
      if (accept(std::move(candidate))) {
        changed = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < res.minimal.leaves.size();) {
      FuzzCase candidate = res.minimal;
      candidate.leaves.erase(candidate.leaves.begin() + static_cast<std::ptrdiff_t>(i));
      if (accept(std::move(candidate))) {
        changed = true;
      } else {
        ++i;
      }
    }

    // 3. Shorten the horizon: a failure visible by slot t stays visible
    //    at every horizon > t, so delta-descent finds the shortest
    //    failing horizon in O(log horizon) probes.
    for (Time delta = res.minimal.horizon / 2; delta >= 1;) {
      if (res.minimal.horizon - delta >= 1) {
        FuzzCase candidate = res.minimal;
        candidate.horizon -= delta;
        if (accept(std::move(candidate))) {
          changed = true;
          delta = std::min(delta, res.minimal.horizon / 2);
          continue;
        }
      }
      delta /= 2;
    }

    // 4. Round weights down: reduce e/p by gcd, drop to the lightest
    //    weight at the period, or shave one quantum of execution.
    for (TaskId id = 0; id < res.minimal.tasks.size(); ++id) {
      const Task& t = res.minimal.tasks[id];
      const std::int64_t g = std::gcd(t.execution, t.period);
      const std::pair<std::int64_t, std::int64_t> candidates[] = {
          {t.execution / g, t.period / g},
          {1, t.period},
          {t.execution - 1, t.period},
      };
      for (const auto& [e, p] : candidates) {
        const Task& cur = res.minimal.tasks[id];
        if (e < 1 || (e == cur.execution && p == cur.period)) continue;
        if (accept(replace_task(res.minimal, id, e, p))) changed = true;
      }
    }

    // 5. Fewer processors (only possible once total weight allows it).
    while (res.minimal.processors > 1) {
      FuzzCase candidate = res.minimal;
      --candidate.processors;
      if (!accept(std::move(candidate))) break;
      changed = true;
    }
  }
  return res;
}

}  // namespace pfair::qa
