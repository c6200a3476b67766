// Cost of the Tier-2 exact global-EDF/RM test, in two shapes.
//
// BM_ExactGedf_Served cycles through a few hundred seeded sets shaped
// like the serve benchmark's Tier-2 calls: m = 4, about 14 tasks,
// periods dividing 240, totals between the GFB bound and m.  It cycles
// because the branch predictor learns a set that repeats; the counters
// are the time of one call and of one event, averaged over the sets.
//
// BM_ExactGedf_PerEvent measures task counts the serve benchmark never
// reaches.  Every set runs at about half of m and either passes the GFB
// bound or has a processor per task, so no deadline is missed: each call
// spends exactly the fixed event budget (a run that does not is an
// error), and the time_per_event counter is the time of one call over
// that budget.
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

/// One set shaped like a served Tier-2 call, in canonical (period,
/// execution) order as the gate passes it: light tasks up to a base
/// total of 1.4–2.2, then heavy ones until the total passes the GFB
/// bound m − (m − 1)·u_max.  A set whose total passes m is drawn again.
std::vector<UniTask> served_set(Rng& rng, int m) {
  constexpr std::int64_t kHyperperiod = 240;
  std::vector<std::int64_t> periods;
  for (std::int64_t d = 4; d <= kHyperperiod; ++d)
    if (kHyperperiod % d == 0) periods.push_back(d);
  while (true) {
    std::vector<UniTask> tasks;
    std::int64_t total = 0, umax = 0;  // units of 1/240
    const auto add = [&](double u_lo, double u_hi) {
      const auto last = static_cast<std::int64_t>(periods.size()) - 1;
      const std::int64_t p = periods[static_cast<std::size_t>(rng.uniform_int(0, last))];
      const double u = rng.uniform(u_lo, u_hi);
      const std::int64_t e =
          std::clamp<std::int64_t>(std::llround(u * static_cast<double>(p)), 1, p);
      tasks.push_back(UniTask{e, p});
      total += e * (kHyperperiod / p);
      umax = std::max(umax, e * (kHyperperiod / p));
    };
    const auto base = static_cast<std::int64_t>(rng.uniform(1.4, 2.2) * kHyperperiod);
    while (total < base) add(0.05, 0.30);
    while (total <= m * kHyperperiod - (m - 1) * umax) add(0.45, 0.95);
    if (total > m * kHyperperiod) continue;
    std::stable_sort(tasks.begin(), tasks.end(), [](const UniTask& a, const UniTask& b) {
      return a.period != b.period ? a.period < b.period : a.execution < b.execution;
    });
    return tasks;
  }
}

void BM_ExactGedf_Served(benchmark::State& state) {
  const auto sets = static_cast<std::size_t>(state.range(0));
  const UniAlgorithm algorithm = state.range(1) == 0 ? UniAlgorithm::kEDF : UniAlgorithm::kRM;
  constexpr int m = 4;
  Rng rng(2003);
  std::vector<std::vector<UniTask>> corpus;
  for (std::size_t i = 0; i < sets; ++i) corpus.push_back(served_set(rng, m));
  std::size_t next = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const serve::GedfResult r = serve::exact_global_schedulable(corpus[next], m, algorithm);
    benchmark::DoNotOptimize(r);
    if (r.verdict == serve::GedfVerdict::kBudgetExceeded) {
      state.SkipWithError("a served-shape set exhausted the event budget");
      break;
    }
    events += r.events;
    if (++next == sets) next = 0;
  }
  const auto calls = static_cast<double>(state.iterations());
  state.counters["time_per_call"] =
      benchmark::Counter(calls, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["events_per_call"] = static_cast<double>(events) / std::max(calls, 1.0);
}
BENCHMARK(BM_ExactGedf_Served)
    ->ArgNames({"sets", "rm"})
    ->ArgsProduct({{256}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

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
