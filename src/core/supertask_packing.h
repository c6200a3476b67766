// Supertask packing (paper Sec. 5.5).
//
// "The supertasking approach is attractive primarily because it
// combines the benefits of both Pfair scheduling and partitioning.  (In
// fact, both EDF-FF and ordinary Pfair scheduling can be seen as
// special cases of the supertasking approach.)"
//
// This module realises the spectrum: it packs a task set into up to G
// supertasks (first-fit decreasing by weight, on the one bin packer of
// partition/heuristics.h), each competing with the Holman-Anderson
// reweighted weight (cumulative + 1/p_min, the price of guaranteed
// component deadlines under internal EDF).  A group keeps its exact
// cumulative weight and smallest period, so a probe is one add (two
// when reweighting); components stay in placement order.  Tasks that
// do not fit into any group remain migratory Pfair tasks.
//   - G = 0             -> ordinary global Pfair scheduling;
//   - G = M, everything
//     packed, servers
//     bound to CPUs     -> an EDF-FF-like system hosted inside Pfair;
//   - anything between  -> hybrid.
#pragma once

#include <vector>

#include "core/supertask.h"
#include "core/task.h"
#include "util/rational.h"

namespace pfair {

struct PackingResult {
  std::vector<SupertaskSpec> supertasks;  ///< one per non-empty group
  std::vector<Task> migratory;            ///< tasks left global
  /// Total competing weight of the packed system: sum of supertask
  /// weights plus migratory weights.  Packing is a *trade*: this
  /// exceeds the raw total by the reweighting overhead.
  Rational total_weight{0};

  [[nodiscard]] Rational reweighting_overhead(const TaskSet& original) const {
    return total_weight - original.total_weight();
  }
};

/// Packs `tasks` into at most `groups` supertasks.  A task joins a
/// group only if the group's *reweighted* competing weight stays <= 1.
/// Pass reweight = false to pack at cumulative weight (unsafe — Fig. 5 —
/// but useful for experiments).
[[nodiscard]] PackingResult pack_into_supertasks(const TaskSet& tasks, int groups,
                                                 bool reweight = true);

}  // namespace pfair
