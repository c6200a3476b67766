#include "partition/heuristics.h"

#include <cassert>
#include <cmath>

namespace pfair {

const char* heuristic_name(Heuristic h) noexcept {
  switch (h) {
    case Heuristic::kFirstFit:
      return "FF";
    case Heuristic::kBestFit:
      return "BF";
    case Heuristic::kWorstFit:
      return "WF";
    case Heuristic::kFirstFitDecreasing:
      return "FFD";
    case Heuristic::kBestFitDecreasing:
      return "BFD";
  }
  return "?";
}

double partitioning_worst_case_utilization(int m) noexcept {
  return (static_cast<double>(m) + 1.0) / 2.0;
}

double lopez_bound(int m, double u_max) noexcept {
  assert(u_max > 0.0 && u_max <= 1.0);
  const double beta = std::floor(1.0 / u_max);
  return (beta * static_cast<double>(m) + 1.0) / (beta + 1.0);
}

double simple_partition_bound(int m, double u_max) noexcept {
  return static_cast<double>(m) - (static_cast<double>(m) - 1.0) * u_max;
}

}  // namespace pfair
