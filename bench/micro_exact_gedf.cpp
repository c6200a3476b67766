// Cost per scheduler event of the Tier-2 exact global-EDF test at task
// counts the serve benchmark never reaches (its calls see ~14 tasks).
// Every set runs at about half of m and either passes the GFB bound or
// has a processor per task, so no deadline is missed: each call spends
// exactly the fixed event budget (a run that does not is an error), and
// the time_per_event counter is the time of one call over that budget.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "serve/exact_gedf.h"
#include "util/rng.h"

namespace {

using namespace pfair;

constexpr std::uint64_t kBudget = 1u << 14;

void BM_ExactGedf_PerEvent(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(static_cast<std::uint64_t>(n) * 31 + static_cast<std::uint64_t>(m));
  const double load = 0.5 * m / static_cast<double>(n);
  std::vector<UniTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = rng.uniform_int(1000, 100000);
    const double u = load * rng.uniform(0.5, 1.5);
    const std::int64_t e = std::llround(u * static_cast<double>(p));
    tasks.push_back(UniTask{std::clamp<std::int64_t>(e, 1, p), p});
  }
  for (auto _ : state) {
    const serve::GedfResult r =
        serve::exact_global_schedulable(tasks, m, UniAlgorithm::kEDF, kBudget);
    benchmark::DoNotOptimize(r);
    if (r.verdict != serve::GedfVerdict::kBudgetExceeded || r.events != kBudget) {
      state.SkipWithError("the set left the budget unspent");
      break;
    }
  }
  // An inverted rate over events: seconds per event (printed as ns).
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBudget),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ExactGedf_PerEvent)
    ->ArgNames({"n", "m"})
    ->ArgsProduct({{16, 256, 4096}, {4, 16}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
