#include "uniproc/analysis.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"
#include "util/rational.h"

namespace pfair {

bool edf_schedulable(const std::vector<UniTask>& tasks) {
  Rational u(0);
  for (const UniTask& t : tasks) u += Rational(t.execution, t.period);
  return u <= Rational(1);
}

double rm_utilization_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

bool rm_schedulable_ll(const std::vector<UniTask>& tasks) {
  return total_utilization(tasks) <= rm_utilization_bound(tasks.size()) + 1e-12;
}

namespace {

/// RM response time of entry `index` of tasks + {extra} (`extra`, when
/// given, is entry tasks.size()), or -1 once it passes the deadline.
/// Higher priority = shorter period, ties by position (earlier entries
/// win, the conventional deterministic tie-break).
std::int64_t response_time(const std::vector<UniTask>& tasks, const UniTask* extra,
                           std::size_t index) {
  const auto at = [&](std::size_t j) -> const UniTask& {
    return j < tasks.size() ? tasks[j] : *extra;
  };
  const std::size_t n = tasks.size() + (extra != nullptr ? 1 : 0);
  const UniTask& self = at(index);
  std::int64_t r = self.execution;
  for (;;) {
    std::int64_t next = self.execution;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == index) continue;
      const bool higher =
          at(j).period < self.period || (at(j).period == self.period && j < index);
      if (!higher) continue;
      next += ceil_div(r, at(j).period) * at(j).execution;
    }
    if (next == r) return r;
    if (next > self.period) return -1;  // diverged past the deadline
    r = next;
  }
}

}  // namespace

std::int64_t rm_response_time(const std::vector<UniTask>& tasks, std::size_t index) {
  return response_time(tasks, nullptr, index);
}

bool rm_schedulable_exact(const std::vector<UniTask>& tasks) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::int64_t r = rm_response_time(tasks, i);
    if (r < 0 || r > tasks[i].period) return false;
  }
  return true;
}

bool rm_schedulable_with(const std::vector<UniTask>& tasks, const UniTask& extra) {
  // Tasks whose period is not longer than extra's keep their response
  // times: extra, last among equal periods, never preempts them.
  for (std::size_t i = 0; i <= tasks.size(); ++i) {
    if (i < tasks.size() && tasks[i].period <= extra.period) continue;
    if (response_time(tasks, &extra, i) < 0) return false;
  }
  return true;
}

Rational lopez_edf_ff_bound(int m, std::int64_t beta) {
  assert(m >= 1 && beta >= 1);
  return Rational(beta * m + 1, beta + 1);
}

std::int64_t lopez_beta(const std::vector<UniTask>& tasks) {
  std::int64_t beta = 1;
  bool first = true;
  for (const UniTask& t : tasks) {
    const std::int64_t b = t.period / t.execution;  // floor(1/u)
    if (first || b < beta) beta = b;
    first = false;
  }
  return beta < 1 ? 1 : beta;
}

}  // namespace pfair
