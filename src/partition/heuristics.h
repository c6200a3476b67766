// Bin-packing partitioning (paper Sec. 3): the one packer every
// partitioning decision in the repo runs through, and the bounds.
//
// Finding an optimal assignment of tasks to processors is NP-hard in the
// strong sense, so online partitioners use polynomial heuristics.  A
// scheme is the product of three choices (Lupu et al. evaluate exactly
// that product):
//   - the order items arrive in, which the caller gives: input order for
//     first/best/worst fit, decreasing utilization for FFD and BFD,
//     decreasing period for Eq.-(3) EDF-FF (overhead/inflation.h),
//     decreasing weight for supertasks (core/supertask_packing.h),
//     (rate descending, index) for RUN's reduction (sim/run_sim.h);
//   - the fit rule: the first accepting bin, or the accepting bin with
//     the largest (best fit) or smallest (worst fit) load, ties to the
//     lower bin;
//   - the acceptance policy, which keeps incremental state per bin so a
//     probe never re-sums the bin: an exact util::WeightSum for EDF, the
//     count and double sum for RM's Liu-Layland bound, the member list
//     for RM's response-time analysis and for Eq. (3) (uni_partition.h,
//     inflation.h), the weight sum and smallest period for supertasks,
//     the integer tick rate for RUN.
// An item no open bin accepts opens a new bin when fewer than the cap
// are open and the empty bin accepts it; otherwise it stays unplaced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfair {

/// How the packer chooses among the open bins that accept an item.
enum class Fit : std::uint8_t {
  kFirst,  ///< the first accepting bin
  kBest,   ///< the accepting bin with the largest load
  kWorst,  ///< the accepting bin with the smallest load
};

template <class Bin>
struct Packing {
  std::vector<int> assignment;  ///< per item index, -1 = unplaced
  std::vector<Bin> bins;        ///< each bin's final state, in opening order
  bool feasible = true;         ///< every item placed
};

/// Packs the items 0..n-1, taken in `order` (a permutation of them),
/// into at most `max_bins` bins.  `Policy` supplies the acceptance test:
///   using Bin = ...;                          // default state = empty bin
///   bool accepts(const Bin&, std::size_t item) const;
///   void add(Bin&, std::size_t item);         // called once accepts() said yes
///   double load(const Bin&) const;            // the best/worst-fit key
template <class Policy>
[[nodiscard]] Packing<typename Policy::Bin> pack(const std::vector<std::size_t>& order,
                                                 Fit fit, int max_bins, Policy& policy) {
  Packing<typename Policy::Bin> out;
  out.assignment.assign(order.size(), -1);
  for (const std::size_t i : order) {
    int chosen = -1;
    for (int b = 0; b < static_cast<int>(out.bins.size()); ++b) {
      const auto& bin = out.bins[static_cast<std::size_t>(b)];
      if (!policy.accepts(bin, i)) continue;
      if (fit == Fit::kFirst) {
        chosen = b;
        break;
      }
      if (chosen == -1) {
        chosen = b;
        continue;
      }
      const double cur = policy.load(out.bins[static_cast<std::size_t>(chosen)]);
      const double cand = policy.load(bin);
      if (fit == Fit::kBest ? cand > cur : cand < cur) chosen = b;
    }
    if (chosen == -1) {
      if (static_cast<int>(out.bins.size()) >= max_bins ||
          !policy.accepts(typename Policy::Bin{}, i)) {
        out.feasible = false;
        continue;
      }
      out.bins.emplace_back();
      chosen = static_cast<int>(out.bins.size()) - 1;
    }
    policy.add(out.bins[static_cast<std::size_t>(chosen)], i);
    out.assignment[i] = chosen;
  }
  return out;
}

/// The named heuristics of partition_uni (uniproc tasks) and the
/// partitioned simulator.
enum class Heuristic : std::uint8_t {
  kFirstFit,            ///< first processor that accepts the task
  kBestFit,             ///< minimal remaining capacity after placement
  kWorstFit,            ///< maximal remaining capacity after placement
  kFirstFitDecreasing,  ///< FF after sorting by decreasing utilization
  kBestFitDecreasing,   ///< BF after sorting by decreasing utilization
};

[[nodiscard]] const char* heuristic_name(Heuristic h) noexcept;

/// Worst-case achievable utilization of *any* partitioning heuristic on
/// m processors: (m + 1) / 2 (paper Sec. 3: m+1 tasks of utilization
/// slightly above 1/2 cannot be partitioned).
[[nodiscard]] double partitioning_worst_case_utilization(int m) noexcept;

/// Lopez et al. worst-case achievable utilization for EDF partitioning
/// when every task has utilization <= u_max:
/// (beta * m + 1) / (beta + 1), beta = floor(1 / u_max).
[[nodiscard]] double lopez_bound(int m, double u_max) noexcept;

/// The simpler bound the paper derives first: any task set with total
/// utilization <= m - (m - 1) * u_max is schedulable.
[[nodiscard]] double simple_partition_bound(int m, double u_max) noexcept;

}  // namespace pfair
