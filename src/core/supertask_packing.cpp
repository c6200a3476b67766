#include "core/supertask_packing.h"

#include <algorithm>
#include <numeric>

#include "partition/heuristics.h"

namespace pfair {

namespace {

/// A group keeps its cumulative weight and smallest period: its
/// competing weight with one more component is then one add (two when
/// reweighting), in the order a from-scratch sum would take.
struct GroupPolicy {
  struct Bin {
    Rational weight{0};
    std::int64_t pmin = 0;  ///< 0 = empty group
  };
  const TaskSet& tasks;
  bool reweight;

  [[nodiscard]] bool accepts(const Bin& b, std::size_t i) const {
    const Task& t = tasks[static_cast<TaskId>(i)];
    Rational w = b.weight + t.weight();
    if (reweight) w += Rational(1, b.pmin == 0 ? t.period : std::min(b.pmin, t.period));
    return w <= Rational(1);
  }
  void add(Bin& b, std::size_t i) const {
    const Task& t = tasks[static_cast<TaskId>(i)];
    b.weight += t.weight();
    b.pmin = b.pmin == 0 ? t.period : std::min(b.pmin, t.period);
  }
  [[nodiscard]] static double load(const Bin& b) noexcept { return b.weight.to_double(); }
};

}  // namespace

PackingResult pack_into_supertasks(const TaskSet& tasks, int groups, bool reweight) {
  // First-fit decreasing by weight: heavy tasks seed groups, light
  // tasks fill the gaps (and light tasks are also the ones whose
  // context-switch savings motivate packing).
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[static_cast<TaskId>(b)].weight() < tasks[static_cast<TaskId>(a)].weight();
  });
  GroupPolicy policy{tasks, reweight};
  const auto packing = pack(order, Fit::kFirst, groups, policy);

  // Components in placement order; a task no group took stays global.
  PackingResult res;
  std::vector<std::vector<Task>> bins(packing.bins.size());
  for (const std::size_t i : order) {
    const Task& t = tasks[static_cast<TaskId>(i)];
    if (packing.assignment[i] < 0) {
      res.migratory.push_back(t);
    } else {
      bins[static_cast<std::size_t>(packing.assignment[i])].push_back(t);
    }
  }
  for (auto& bin : bins) {
    SupertaskSpec spec = reweight ? make_reweighted_supertask(std::move(bin))
                                  : make_supertask(std::move(bin));
    res.total_weight += spec.competing_weight();
    res.supertasks.push_back(std::move(spec));
  }
  for (const Task& t : res.migratory) res.total_weight += t.weight();
  return res;
}

}  // namespace pfair
