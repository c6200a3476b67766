#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rational.h"

namespace pfair {

std::vector<OhTask> generate_oh_tasks(const OhWorkloadConfig& cfg, Rng& rng) {
  assert(cfg.n_tasks > 0);
  assert(cfg.total_utilization > 0.0 &&
         cfg.total_utilization < static_cast<double>(cfg.n_tasks));
  std::vector<double> u(cfg.n_tasks);
  // Scaled-uniform utilization split, rejecting draws where scaling
  // pushes a task past utilization 1 (rare at the mean utilizations the
  // experiments use, <= 1/3).
  for (int attempt = 0; attempt < 1000; ++attempt) {
    double sum = 0.0;
    for (double& x : u) {
      x = rng.uniform(0.05, 1.0);
      sum += x;
    }
    const double scale = cfg.total_utilization / sum;
    bool ok = true;
    for (double& x : u) {
      x *= scale;
      if (x >= 1.0) {
        ok = false;
        break;
      }
    }
    if (ok) break;
    assert(attempt < 999);
  }

  std::vector<OhTask> tasks;
  tasks.reserve(cfg.n_tasks);
  const double log_lo = std::log(cfg.period_min_us);
  const double log_hi = std::log(cfg.period_max_us);
  for (const double util : u) {
    OhTask t;
    const double p_raw = std::exp(rng.uniform(log_lo, log_hi));
    // Round the period to a quantum multiple (the paper assumes p is a
    // multiple of q).
    const double quanta = std::max(1.0, std::round(p_raw / cfg.quantum_us));
    t.period_us = quanta * cfg.quantum_us;
    t.execution_us = std::max(0.1, util * t.period_us);
    // The paper draws D(T) "randomly between 0us and 100us" with *mean
    // 33.3us*: a right-triangular density on [0, max] (decreasing to 0
    // at max) has mean max/3, honouring both statements.
    t.cache_delay_us = cfg.cache_delay_max_us * (1.0 - std::sqrt(rng.uniform01()));
    tasks.push_back(t);
  }
  return tasks;
}

Task random_pfair_task(Rng& rng, std::int64_t max_period, TaskKind kind) {
  assert(max_period >= 1);
  // Periods are drawn from the divisors of a fixed base hyperperiod
  // H = 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13 (every integer in [1, 16]
  // divides H, so small max_period behaves like a uniform draw).  This
  // keeps the denominator of any *sum* of task weights a divisor of H,
  // so exact-rational feasibility arithmetic cannot overflow no matter
  // how many tasks a set contains — with unrestricted periods the lcm
  // of a few hundred denominators exceeds 64 bits.
  constexpr std::int64_t kBaseHyperperiod = 720720;
  static const std::vector<std::int64_t> divisors = [] {
    std::vector<std::int64_t> d;
    for (std::int64_t k = 1; k * k <= kBaseHyperperiod; ++k) {
      if (kBaseHyperperiod % k == 0) {
        d.push_back(k);
        if (k != kBaseHyperperiod / k) d.push_back(kBaseHyperperiod / k);
      }
    }
    std::sort(d.begin(), d.end());
    return d;
  }();
  const auto end = std::upper_bound(divisors.begin(), divisors.end(),
                                    std::min(max_period, kBaseHyperperiod));
  const auto count = static_cast<std::int64_t>(end - divisors.begin());
  assert(count >= 1);
  const std::int64_t p = divisors[static_cast<std::size_t>(rng.uniform_int(0, count - 1))];
  const std::int64_t e = rng.uniform_int(1, p);
  return make_task(e, p, kind);
}

TaskSet generate_feasible_taskset(Rng& rng, int m, std::size_t max_tasks,
                                  std::int64_t max_period, bool fill, TaskKind kind) {
  assert(m >= 1);
  TaskSet set;
  Rational total(0);
  const Rational cap(m);
  for (std::size_t i = 0; i < max_tasks; ++i) {
    const Task t = random_pfair_task(rng, max_period, kind);
    if (cap < total + t.weight()) continue;  // skip tasks that overflow
    total += t.weight();
    set.add(t);
    if (total == cap) break;
  }
  if (set.empty()) {
    set.add(make_task(1, max_period, kind));
    total = set.total_weight();
  }
  if (fill && total < cap) {
    // Top up with one task of weight exactly cap - total (if it is a
    // valid weight <= 1; otherwise add unit-weight tasks first).
    Rational gap = cap - total;
    while (Rational(1) < gap) {
      set.add(make_task(1, 1, kind));
      gap -= Rational(1);
    }
    if (Rational(0) < gap) set.add(make_task(gap.num(), gap.den(), kind));
  }
  return set;
}

std::vector<UniTask> generate_uni_tasks(Rng& rng, std::size_t n, double u_cap,
                                        std::int64_t max_period) {
  std::vector<UniTask> out;
  out.reserve(n);
  // Same scaled-uniform split as the overhead workloads, but over
  // integer execution times.
  std::vector<double> u(n);
  double sum = 0.0;
  for (double& x : u) {
    x = rng.uniform(0.05, 1.0);
    sum += x;
  }
  for (double& x : u) x *= u_cap / sum;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = rng.uniform_int(std::max<std::int64_t>(10, max_period / 100),
                                           max_period);
    std::int64_t e = static_cast<std::int64_t>(std::llround(u[i] * static_cast<double>(p)));
    e = std::clamp<std::int64_t>(e, 1, p);
    out.push_back(make_uni_task(e, p));
  }
  return out;
}

std::vector<UniTask> partition_adversary(int m, std::int64_t eps_den) {
  assert(m >= 1 && eps_den >= 2);
  // (1 + 1/eps_den) / 2 = (eps_den + 1) / (2 eps_den)
  return std::vector<UniTask>(static_cast<std::size_t>(m) + 1,
                              UniTask{eps_den + 1, 2 * eps_den});
}

TaskSet two_processor_counterexample() {
  TaskSet set;
  set.add(make_task(2, 3, TaskKind::kPeriodic, "A"));
  set.add(make_task(2, 3, TaskKind::kPeriodic, "B"));
  set.add(make_task(2, 3, TaskKind::kPeriodic, "C"));
  return set;
}

Fig5System fig5_system() {
  Fig5System sys;
  sys.normal_tasks.add(make_task(1, 2, TaskKind::kPeriodic, "V"));
  sys.normal_tasks.add(make_task(1, 3, TaskKind::kPeriodic, "W"));
  sys.normal_tasks.add(make_task(1, 3, TaskKind::kPeriodic, "X"));
  sys.normal_tasks.add(make_task(2, 9, TaskKind::kPeriodic, "Y"));
  sys.supertask = make_supertask(
      {make_task(1, 5, TaskKind::kPeriodic, "T"), make_task(1, 45, TaskKind::kPeriodic, "U")},
      "S");
  return sys;
}

}  // namespace pfair
