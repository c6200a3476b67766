#include "partition/uni_partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "uniproc/analysis.h"
#include "util/weight_sum.h"

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

/// The three acceptance tests over one per-processor state, of which
/// each test keeps only what it reads: EDF the exact utilization sum
/// (past int64 an interval, which accepts only when wholly within 1),
/// RM-LL the count and double sum, RM-exact the members in placement
/// order (the analysis's tie-break among equal periods).  The double
/// sum is also the best/worst-fit load.
struct UniPolicy {
  struct Bin {
    WeightSum sum;
    std::size_t count = 0;
    std::vector<UniTask> members;
    double load = 0.0;
  };
  const std::vector<UniTask>& tasks;
  Acceptance acc;

  [[nodiscard]] bool accepts(const Bin& b, std::size_t i) const {
    const UniTask& t = tasks[i];
    switch (acc) {
      case Acceptance::kEdfUtilization:
        return b.sum.with(Weight{t.execution, t.period}).against(1) ==
               WeightSum::Side::kWithin;
      case Acceptance::kRmLiuLayland:
        return b.load + t.utilization() <= rm_utilization_bound(b.count + 1) + 1e-12;
      case Acceptance::kRmExact:
        break;
    }
    return rm_schedulable_with(b.members, t);
  }
  void add(Bin& b, std::size_t i) const {
    const UniTask& t = tasks[i];
    if (acc == Acceptance::kEdfUtilization) b.sum.add(t.execution, t.period);
    if (acc == Acceptance::kRmExact) b.members.push_back(t);
    ++b.count;
    b.load += t.utilization();
  }
  [[nodiscard]] static double load(const Bin& b) noexcept { return b.load; }
};

}  // namespace

UniPartitionResult partition_uni(const std::vector<UniTask>& tasks, int max_processors,
                                 Heuristic h, Acceptance acc) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (h == Heuristic::kFirstFitDecreasing || h == Heuristic::kBestFitDecreasing) {
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[a].utilization() > tasks[b].utilization();
    });
  }
  Fit fit = Fit::kFirst;
  if (h == Heuristic::kBestFit || h == Heuristic::kBestFitDecreasing) fit = Fit::kBest;
  if (h == Heuristic::kWorstFit) fit = Fit::kWorst;
  UniPolicy policy{tasks, acc};
  const auto packing = pack(order, fit, max_processors, policy);
  return {packing.assignment, static_cast<int>(packing.bins.size()), packing.feasible};
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
