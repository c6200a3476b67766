#include "overhead/inflation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "partition/heuristics.h"

namespace pfair {

namespace {

[[nodiscard]] std::int64_t ceil_quanta(double us, double quantum_us) {
  return static_cast<std::int64_t>(std::ceil(us / quantum_us - 1e-9));
}

}  // namespace

double inflate_edf_us(const OhTask& t, double max_delay_us, const OverheadParams& params,
                      std::size_t n_tasks) {
  const double s = params.sched.edf_us(static_cast<double>(n_tasks));
  return t.execution_us + 2.0 * (s + params.context_switch_us) + max_delay_us;
}

Pd2Inflation inflate_pd2(const OhTask& t, const OverheadParams& params, std::size_t n_tasks,
                         int m, int max_iterations) {
  Pd2Inflation out;
  const double q = params.quantum_us;
  const double s = params.sched.pd2_us(static_cast<double>(n_tasks), m);
  const double c = params.context_switch_us;
  out.period_quanta = ceil_quanta(t.period_us, q);
  assert(out.period_quanta >= 1);

  double e_prime = t.execution_us;
  double previous = -1.0;  // detects 2-cycles of the quantised map
  for (int it = 1; it <= max_iterations; ++it) {
    const std::int64_t eq = std::max<std::int64_t>(1, ceil_quanta(e_prime, q));
    const std::int64_t preemptions = std::min(eq - 1, out.period_quanta - eq);
    if (preemptions < 0) {
      // Inflated demand exceeds the period: the task cannot be scheduled
      // at any processor count (its quantised weight would exceed 1).
      out.execution_us = e_prime;
      out.quanta = eq;
      out.iterations = it;
      out.feasible = false;
      return out;
    }
    const double next = t.execution_us + static_cast<double>(eq) * s + c +
                        static_cast<double>(preemptions) * (c + t.cache_delay_us);
    // Converged, or trapped in a 2-cycle of the quantised map (the
    // iterate alternates between two quanta counts); in the cycle case
    // take the larger, conservative value.
    if (std::abs(next - e_prime) < 1e-9 || std::abs(next - previous) < 1e-9) {
      const double settled = std::max(next, e_prime);
      out.execution_us = settled;
      out.quanta = std::max<std::int64_t>(1, ceil_quanta(settled, q));
      out.iterations = it;
      out.feasible = out.quanta <= out.period_quanta;
      return out;
    }
    previous = e_prime;
    e_prime = next;
  }
  // No fixed point within the iteration budget (only possible for
  // pathological parameter choices); report infeasible.
  out.execution_us = e_prime;
  out.quanta = std::max<std::int64_t>(1, ceil_quanta(e_prime, q));
  out.iterations = max_iterations;
  out.feasible = false;
  return out;
}

std::optional<int> pd2_min_processors(const std::vector<OhTask>& tasks,
                                      const OverheadParams& params, int cap) {
  if (tasks.empty()) return 1;
  double raw = 0.0;
  for (const OhTask& t : tasks) raw += t.utilization();
  int m = std::max(1, static_cast<int>(std::ceil(raw - 1e-9)));
  for (; m <= cap; ++m) {
    double total = 0.0;
    bool ok = true;
    for (const OhTask& t : tasks) {
      const Pd2Inflation inf = inflate_pd2(t, params, tasks.size(), m);
      if (!inf.feasible) {
        ok = false;
        break;
      }
      total += inf.weight();
    }
    if (ok && total <= static_cast<double>(m) + 1e-9) return m;
    if (!ok) return std::nullopt;  // a task with weight > 1 never fits
  }
  return std::nullopt;
}

namespace {

/// Eq.-(3) acceptance: a processor keeps its members, whose longer
/// periods set a new task's cache-delay term, and its inflated load.
/// Placing a task records its inflated utilization in the result.
struct InflatedEdfPolicy {
  struct Bin {
    std::vector<std::size_t> members;  ///< indices into the task list
    double load = 0.0;
  };
  const std::vector<OhTask>& tasks;
  const OverheadParams& params;
  EdfFfResult& res;

  /// e'/p with max D(U) over the members of strictly longer period.
  [[nodiscard]] double inflated_util(const Bin& b, std::size_t i) const {
    double max_delay = 0.0;
    for (const std::size_t j : b.members) {
      if (tasks[j].period_us > tasks[i].period_us)
        max_delay = std::max(max_delay, tasks[j].cache_delay_us);
    }
    return inflate_edf_us(tasks[i], max_delay, params, tasks.size()) / tasks[i].period_us;
  }
  [[nodiscard]] bool accepts(const Bin& b, std::size_t i) const {
    const double u = inflated_util(b, i);
    return u <= 1.0 + 1e-12 && b.load + u <= 1.0 + 1e-12;
  }
  void add(Bin& b, std::size_t i) {
    const double u = inflated_util(b, i);
    b.members.push_back(i);
    b.load += u;
    res.inflated_util[i] = u;
    res.total_inflated_utilization += u;
  }
  [[nodiscard]] static double load(const Bin& b) noexcept { return b.load; }
};

}  // namespace

EdfFfResult edf_ff_partition(const std::vector<OhTask>& tasks, const OverheadParams& params,
                             int max_processors) {
  EdfFfResult res;
  res.inflated_util.assign(tasks.size(), 0.0);

  // Decreasing-period order: each task's P_T (longer-period co-located
  // tasks) is then fully known at placement time, and placing a task
  // never changes the inflation of tasks placed earlier.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].period_us > tasks[b].period_us;
  });
  InflatedEdfPolicy policy{tasks, params, res};
  const int cap = max_processors >= 0 ? max_processors : std::numeric_limits<int>::max();
  const auto packing = pack(order, Fit::kFirst, cap, policy);
  res.assignment = packing.assignment;
  res.processors = static_cast<int>(packing.bins.size());
  res.feasible = packing.feasible;
  return res;
}

LossBreakdown loss_breakdown(const std::vector<OhTask>& tasks, const OverheadParams& params) {
  LossBreakdown out;
  for (const OhTask& t : tasks) out.raw_utilization += t.utilization();

  const std::optional<int> m_pd2 = pd2_min_processors(tasks, params);
  const EdfFfResult ff = edf_ff_partition(tasks, params);
  if (!m_pd2.has_value() || !ff.feasible) return out;

  out.pd2_processors = *m_pd2;
  out.edfff_processors = ff.processors;

  double pd2_total = 0.0;
  for (const OhTask& t : tasks)
    pd2_total += inflate_pd2(t, params, tasks.size(), *m_pd2).weight();

  out.pd2_loss = (pd2_total - out.raw_utilization) / static_cast<double>(*m_pd2);
  out.edf_loss =
      (ff.total_inflated_utilization - out.raw_utilization) / static_cast<double>(ff.processors);
  out.ff_loss = (static_cast<double>(ff.processors) - ff.total_inflated_utilization) /
                static_cast<double>(ff.processors);
  out.valid = true;
  return out;
}

}  // namespace pfair
