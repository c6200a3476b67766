#include "partition/uni_partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "uniproc/analysis.h"
#include "util/rational.h"

namespace pfair {

const char* acceptance_name(Acceptance a) noexcept {
  switch (a) {
    case Acceptance::kEdfUtilization:
      return "EDF";
    case Acceptance::kRmLiuLayland:
      return "RM-LL";
    case Acceptance::kRmExact:
      return "RM-exact";
  }
  return "?";
}

namespace {

[[nodiscard]] bool accepts(const std::vector<UniTask>& members, const UniTask& candidate,
                           Acceptance acc) {
  std::vector<UniTask> with = members;
  with.push_back(candidate);
  switch (acc) {
    case Acceptance::kEdfUtilization:
      return edf_schedulable(with);
    case Acceptance::kRmLiuLayland:
      return rm_schedulable_ll(with);
    case Acceptance::kRmExact:
      return rm_schedulable_exact(with);
  }
  return false;
}

/// Remaining utilization headroom, used for the best/worst-fit choice
/// (acceptance may be non-utilization-based; headroom is still the
/// conventional fit metric).
[[nodiscard]] double load_of(const std::vector<UniTask>& members) {
  return total_utilization(members);
}

}  // namespace

UniPartitionResult partition_uni(const std::vector<UniTask>& tasks, int max_processors,
                                 Heuristic h, Acceptance acc) {
  UniPartitionResult res;
  res.assignment.assign(tasks.size(), -1);
  res.feasible = true;

  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const bool decreasing =
      h == Heuristic::kFirstFitDecreasing || h == Heuristic::kBestFitDecreasing;
  if (decreasing) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }
  const Heuristic rule = decreasing
                             ? (h == Heuristic::kFirstFitDecreasing ? Heuristic::kFirstFit
                                                                    : Heuristic::kBestFit)
                             : h;

  std::vector<std::vector<UniTask>> procs;

  for (const std::size_t i : order) {
    assert(tasks[i].valid());
    int chosen = -1;
    for (int pnum = 0; pnum < static_cast<int>(procs.size()); ++pnum) {
      if (!accepts(procs[static_cast<std::size_t>(pnum)], tasks[i], acc)) continue;
      if (rule == Heuristic::kFirstFit) {
        chosen = pnum;
        break;
      }
      if (chosen == -1) {
        chosen = pnum;
        continue;
      }
      const double cur = load_of(procs[static_cast<std::size_t>(chosen)]);
      const double cand = load_of(procs[static_cast<std::size_t>(pnum)]);
      if (rule == Heuristic::kBestFit ? cand > cur : cand < cur) chosen = pnum;
    }
    if (chosen == -1) {
      if (static_cast<int>(procs.size()) < max_processors &&
          accepts({}, tasks[i], acc)) {
        procs.emplace_back();
        chosen = static_cast<int>(procs.size()) - 1;
      } else {
        res.feasible = false;
        continue;
      }
    }
    procs[static_cast<std::size_t>(chosen)].push_back(tasks[i]);
    res.assignment[i] = chosen;
  }
  res.processors_used = static_cast<int>(procs.size());
  return res;
}

int min_processors_uni(const std::vector<UniTask>& tasks, Heuristic h, Acceptance acc,
                       int hard_cap) {
  double total = 0.0;
  for (const UniTask& t : tasks) total += t.utilization();
  int m = std::max(1, static_cast<int>(std::ceil(total - 1e-12)));
  for (; m <= hard_cap; ++m) {
    if (partition_uni(tasks, m, h, acc).feasible) return m;
  }
  return -1;
}

}  // namespace pfair
