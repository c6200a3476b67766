#include "qa/gen.h"

#include <algorithm>

#include "util/rational.h"

namespace pfair::qa {

namespace {

/// Remaining capacity m - total as an exact rational (>= 0 by invariant).
Rational remaining(const TaskSet& set, int m) {
  return Rational(m) - set.total_weight();
}

/// Adds `t` iff it keeps the set feasible on m processors.
bool try_add(TaskSet& set, int m, Task t) {
  if (set.total_weight() + t.weight() > Rational(m)) return false;
  set.add(std::move(t));
  return true;
}

/// Tops the set up to total weight exactly m: weight-1 tasks while a
/// full processor remains, then one task of the residual weight (its
/// period is the residual's denominator, which can exceed max_period —
/// exactness over prettiness, same trade the workload generator makes).
void fill_to_capacity(TaskSet& set, int m, TaskKind kind) {
  Rational rem = remaining(set, m);
  while (rem >= Rational(1)) {
    set.add(make_task(1, 1, kind));
    rem -= Rational(1);
  }
  if (rem > Rational(0)) set.add(make_task(rem.num(), rem.den(), kind));
}

Task draw_uniform(Rng& rng, std::int64_t max_period, TaskKind kind) {
  const std::int64_t p = rng.uniform_int(1, max_period);
  const std::int64_t e = rng.uniform_int(1, p);
  return make_task(e, p, kind);
}

Task draw_heavy(Rng& rng, std::int64_t max_period, TaskKind kind) {
  const std::int64_t p = rng.uniform_int(2, std::max<std::int64_t>(2, max_period));
  const std::int64_t e = rng.uniform_int((p + 1) / 2, p);  // wt >= 1/2
  return make_task(e, p, kind);
}

Task draw_light(Rng& rng, std::int64_t max_period, TaskKind kind) {
  const std::int64_t p = rng.uniform_int(std::min<std::int64_t>(4, max_period), max_period);
  return make_task(1, p, kind);
}

Task draw_harmonic(Rng& rng, std::int64_t max_period, TaskKind kind) {
  std::int64_t p = 1;
  while (p * 2 <= max_period && rng.uniform_int(0, 1) == 1) p *= 2;
  const std::int64_t e = rng.uniform_int(1, p);
  return make_task(e, p, kind);
}

Task draw_degenerate(Rng& rng, std::int64_t max_period, TaskKind kind) {
  const std::int64_t q = rng.uniform_int(2, max_period);
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return make_task(1, 1, kind);  // weight 1: every slot is a window
    case 1:
      return make_task(1, q, kind);  // lightest weight at this period
    case 2:
      return make_task(q - 1, q, kind);  // heaviest proper weight
    default:
      return make_task(q, q, kind);  // weight 1 spelled q/q
  }
}

/// Draws tasks from `draw` while capacity and the task budget allow;
/// a few consecutive rejections end the loop (the remaining capacity
/// is too small for what the profile draws).
template <typename DrawFn>
void populate(TaskSet& set, Rng& rng, int m, std::size_t max_tasks, DrawFn&& draw) {
  int rejections = 0;
  while (set.size() < max_tasks && rejections < 8) {
    if (!try_add(set, m, draw(rng))) ++rejections;
  }
}

}  // namespace

FuzzCase TaskSetGen::make_case(std::uint64_t index) const {
  Rng rng = Rng::stream(seed_, index);
  FuzzCase c;
  c.seed = seed_;
  c.index = index;
  const std::vector<Profile>& profiles = all_profiles();
  c.profile = config_.only_profile.value_or(
      profiles[static_cast<std::size_t>(index % profiles.size())]);
  c.processors = static_cast<int>(
      rng.uniform_int(config_.min_processors, config_.max_processors));
  c.horizon = rng.uniform_int(config_.min_horizon, config_.max_horizon);
  c.kind = TaskKind::kPeriodic;
  if (config_.allow_early_release && c.profile != Profile::kDynamic &&
      c.profile != Profile::kStorm && rng.uniform_int(0, 3) == 0) {
    c.kind = TaskKind::kEarlyRelease;
  }
  const int m = c.processors;
  const std::size_t max_tasks = std::max<std::size_t>(1, config_.max_tasks);
  const std::int64_t max_period = std::max<std::int64_t>(2, config_.max_period);

  switch (c.profile) {
    case Profile::kUniform:
      populate(c.tasks, rng, m, max_tasks,
               [&](Rng& r) { return draw_uniform(r, max_period, c.kind); });
      if (rng.uniform_int(0, 1) == 1) fill_to_capacity(c.tasks, m, c.kind);
      break;
    case Profile::kBimodal:
      populate(c.tasks, rng, m, max_tasks, [&](Rng& r) {
        return r.uniform_int(0, 1) == 1 ? draw_heavy(r, max_period, c.kind)
                                        : draw_light(r, max_period, c.kind);
      });
      break;
    case Profile::kHeavy:
      populate(c.tasks, rng, m, max_tasks, [&](Rng& r) {
        return r.uniform_int(0, 4) == 0 ? draw_light(r, max_period, c.kind)
                                        : draw_heavy(r, max_period, c.kind);
      });
      // Full utilization is where tie-break mistakes surface: no slack
      // means one late quantum is already a miss.
      if (rng.uniform_int(0, 2) != 0) fill_to_capacity(c.tasks, m, c.kind);
      break;
    case Profile::kHarmonic:
      populate(c.tasks, rng, m, max_tasks,
               [&](Rng& r) { return draw_harmonic(r, max_period, c.kind); });
      break;
    case Profile::kDegenerate:
      populate(c.tasks, rng, m, max_tasks,
               [&](Rng& r) { return draw_degenerate(r, max_period, c.kind); });
      if (rng.uniform_int(0, 1) == 1) fill_to_capacity(c.tasks, m, c.kind);
      break;
    case Profile::kDynamic: {
      // Leave headroom so scripted joins have capacity to claim.
      const std::size_t base_tasks = std::max<std::size_t>(1, max_tasks / 2);
      populate(c.tasks, rng, m, base_tasks, [&](Rng& r) {
        Task t = draw_uniform(r, max_period, c.kind);
        // Bias light: heavy base tasks leave no room to rejoin.
        if (t.heavy() && r.uniform_int(0, 1) == 1) t.execution = 1;
        return t;
      });
      const std::int64_t n_joins = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < n_joins; ++i) {
        JoinEvent ev;
        ev.at = rng.uniform_int(1, std::max<Time>(1, c.horizon / 2));
        ev.task = draw_uniform(rng, max_period, c.kind);
        c.joins.push_back(ev);
      }
      const std::int64_t n_leaves = rng.uniform_int(0, 2);
      for (std::int64_t i = 0; i < n_leaves; ++i) {
        LeaveEvent ev;
        ev.at = rng.uniform_int(1, std::max<Time>(1, c.horizon / 2));
        ev.task = static_cast<TaskId>(
            rng.uniform_int(0, static_cast<std::int64_t>(c.tasks.size()) - 1));
        c.leaves.push_back(ev);
      }
      // Scripts are applied in time order; generation order is random.
      std::sort(c.joins.begin(), c.joins.end(),
                [](const JoinEvent& a, const JoinEvent& b) { return a.at < b.at; });
      std::sort(c.leaves.begin(), c.leaves.end(),
                [](const LeaveEvent& a, const LeaveEvent& b) { return a.at < b.at; });
      break;
    }
    case Profile::kStorm: {
      // The pfaird stress shape: a light base set, then a dense burst
      // of joins and leaves crammed into the first half of the horizon
      // so admissions race departures for the same capacity.
      const std::size_t base_tasks = std::max<std::size_t>(1, max_tasks / 3);
      populate(c.tasks, rng, m, base_tasks, [&](Rng& r) {
        Task t = draw_uniform(r, max_period, c.kind);
        if (t.heavy()) t.execution = 1;  // keep the base light
        return t;
      });
      const std::int64_t n_joins = rng.uniform_int(4, 12);
      for (std::int64_t i = 0; i < n_joins; ++i) {
        JoinEvent ev;
        ev.at = rng.uniform_int(1, std::max<Time>(1, c.horizon / 2));
        ev.task = draw_uniform(rng, max_period, c.kind);
        c.joins.push_back(ev);
      }
      const std::int64_t n_leaves = rng.uniform_int(2, 8);
      for (std::int64_t i = 0; i < n_leaves; ++i) {
        LeaveEvent ev;
        ev.at = rng.uniform_int(1, std::max<Time>(1, c.horizon / 2));
        ev.task = static_cast<TaskId>(
            rng.uniform_int(0, static_cast<std::int64_t>(c.tasks.size()) - 1));
        c.leaves.push_back(ev);
      }
      std::sort(c.joins.begin(), c.joins.end(),
                [](const JoinEvent& a, const JoinEvent& b) { return a.at < b.at; });
      std::sort(c.leaves.begin(), c.leaves.end(),
                [](const LeaveEvent& a, const LeaveEvent& b) { return a.at < b.at; });
      break;
    }
  }
  if (c.tasks.empty()) c.tasks.add(make_task(1, max_period, c.kind));
  return c;
}

}  // namespace pfair::qa
