// The Tier-2 exact global-EDF/RM test, held to first principles, to
// the job-level simulator it makes statements about, and to the
// ordered-set event loop it replaced.
#include "serve/exact_gedf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/global_job_sim.h"
#include "util/math.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

/// The reference oracle: the event loop exact_global_schedulable ran on
/// a std::set of live jobs and a std::priority_queue of releases, kept
/// verbatim but for its tie key, which now goes by the task — (period,
/// execution, index) after the EDF deadline or RM period — as
/// GlobalJobSimulator's does.  The winner-tree loop must return the same
/// GedfResult field for field — `events` is echoed on every Tier-2
/// decision line.
GedfResult reference_exact_global_schedulable(const std::vector<UniTask>& tasks, int m,
                                              UniAlgorithm algorithm,
                                              std::uint64_t max_events) {
  GedfResult out;
  if (m < 1) m = 1;
  if (tasks.empty()) {
    out.verdict = GedfVerdict::kSchedulable;
    return out;
  }
  for (const UniTask& t : tasks) {
    if (!t.valid()) {
      out.verdict = GedfVerdict::kUnschedulable;
      out.first_miss = 0;
      return out;
    }
  }

  Time h = 1;
  for (const UniTask& t : tasks) h = saturating_lcm(h, t.period);
  out.hyperperiod = h;

  const std::size_t n = tasks.size();
  using Rel = std::pair<Time, std::uint32_t>;
  std::priority_queue<Rel, std::vector<Rel>, std::greater<Rel>> releases;
  std::vector<std::int64_t> remaining(n, 0);
  // (EDF deadline | RM period, period, execution, index)
  std::set<std::tuple<Time, Time, Time, std::uint32_t>> live;
  for (std::size_t i = 0; i < n; ++i)
    releases.push({Time{0}, static_cast<std::uint32_t>(i)});
  const bool edf = algorithm == UniAlgorithm::kEDF;

  Time t = 0;
  while (true) {
    while (!releases.empty() && releases.top().first == t) {
      const std::uint32_t i = releases.top().second;
      releases.pop();
      if (remaining[i] > 0) {
        out.verdict = GedfVerdict::kUnschedulable;
        out.first_miss = t;
        out.simulated = t;
        return out;
      }
      remaining[i] = tasks[i].execution;
      live.insert({edf ? t + tasks[i].period : tasks[i].period, tasks[i].period,
                   tasks[i].execution, i});
      releases.push({t + tasks[i].period, i});
    }
    if (t >= h) {
      out.verdict = GedfVerdict::kSchedulable;
      out.simulated = t;
      return out;
    }
    if (out.events >= max_events) {
      out.verdict = GedfVerdict::kBudgetExceeded;
      out.simulated = t;
      return out;
    }
    ++out.events;

    const std::size_t run = std::min(live.size(), static_cast<std::size_t>(m));
    Time delta = releases.top().first - t;
    auto it = live.begin();
    for (std::size_t k = 0; k < run; ++k, ++it)
      delta = std::min<Time>(delta, remaining[std::get<3>(*it)]);
    it = live.begin();
    for (std::size_t k = 0; k < run; ++k) {
      const std::uint32_t i = std::get<3>(*it);
      remaining[i] -= delta;
      if (remaining[i] == 0) {
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    t += delta;
  }
}

TEST(ExactGedf, EmptySetIsSchedulable) {
  const GedfResult r = exact_global_schedulable({}, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kSchedulable);
}

TEST(ExactGedf, InvalidTaskIsUnschedulable) {
  const GedfResult r = exact_global_schedulable({UniTask{0, 5}}, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kUnschedulable);
  EXPECT_EQ(r.first_miss, 0);
}

TEST(ExactGedf, FullUtilizationSingleTaskFits) {
  const GedfResult r = exact_global_schedulable({UniTask{4, 4}}, 1);
  EXPECT_EQ(r.verdict, GedfVerdict::kSchedulable);
  EXPECT_EQ(r.hyperperiod, 4);
}

TEST(ExactGedf, DhallStyleOverloadMissesDespiteSpareUtilization) {
  // Two light tasks monopolise both processors first, so the heavy task
  // cannot finish by 11 even though U = 1.909 < m = 2: the effect the
  // GFB density bound exists to exclude and Tier 2 must find exactly.
  const std::vector<UniTask> dhall = {{5, 10}, {5, 10}, {10, 11}};
  const GedfResult r = exact_global_schedulable(dhall, 2);
  EXPECT_EQ(r.verdict, GedfVerdict::kUnschedulable);
  EXPECT_EQ(r.first_miss, 11);
}

TEST(ExactGedf, BudgetExhaustionIsReportedNotGuessed) {
  const std::vector<UniTask> dhall = {{5, 10}, {5, 10}, {10, 11}};
  const GedfResult r =
      exact_global_schedulable(dhall, 2, UniAlgorithm::kEDF, /*max_events=*/1);
  EXPECT_EQ(r.verdict, GedfVerdict::kBudgetExceeded);
  EXPECT_LE(r.events, 1u);
}

TEST(ExactGedf, VerdictNamesAreStable) {
  EXPECT_STREQ(to_string(GedfVerdict::kSchedulable), "schedulable");
  EXPECT_STREQ(to_string(GedfVerdict::kUnschedulable), "unschedulable");
  EXPECT_STREQ(to_string(GedfVerdict::kBudgetExceeded), "budget-exceeded");
}

/// The exact test claims to be a statement about GlobalJobSimulator:
/// schedulable iff the simulator stays miss-free through H.  Hold the
/// two to each other over seeded random sets (periods drawn from a
/// divisor-friendly pool so hyperperiods stay small enough to simulate).
void differential_sweep(UniAlgorithm algorithm) {
  const std::int64_t periods[] = {2, 3, 4, 6, 8, 12};
  Rng rng(algorithm == UniAlgorithm::kEDF ? 101 : 202);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 3));
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
    std::vector<UniTask> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p = periods[rng.uniform_int(0, 5)];
      tasks.push_back(UniTask{rng.uniform_int(1, p), p});
    }
    Time h = 1;
    for (const UniTask& t : tasks) h = saturating_lcm(h, t.period);

    const GedfResult exact = exact_global_schedulable(tasks, m, algorithm);
    ASSERT_NE(exact.verdict, GedfVerdict::kBudgetExceeded);

    GlobalJobConfig cfg;
    cfg.processors = m;
    cfg.algorithm = algorithm;
    GlobalJobSimulator sim(tasks, cfg);
    sim.run_until(h + 1);
    const bool sim_clean = sim.metrics().deadline_misses == 0;
    EXPECT_EQ(exact.verdict == GedfVerdict::kSchedulable, sim_clean)
        << "trial " << trial << ": m=" << m << " n=" << n
        << " exact=" << to_string(exact.verdict)
        << " sim_misses=" << sim.metrics().deadline_misses;
  }
}

TEST(ExactGedf, AgreesWithGlobalJobSimulatorUnderEdf) {
  differential_sweep(UniAlgorithm::kEDF);
}

TEST(ExactGedf, AgreesWithGlobalJobSimulatorUnderRm) {
  differential_sweep(UniAlgorithm::kRM);
}

/// Holds the winner-tree loop to the reference oracle over a seeded
/// corpus built for ties: small period pools (one with a single period),
/// executions rounded from a common per-task load, and repeated tasks,
/// so equal deadlines and periods across task indices are the rule.
/// Task counts run from 1 to 200, so the trees' leaf counts cross 64 and
/// 128 and most are padded; m runs to 16, often at or above n.  Each set
/// runs under every budget, 0 included, so stops at every stage of the
/// loop are compared, not only final verdicts.  With `scale` > 1 every
/// period and execution is multiplied by it, so keys pass 32 bits; the
/// schedule only stretches, so the unscaled run's fields, scaled, must
/// come back as well.
void reference_sweep(UniAlgorithm algorithm, std::int64_t scale = 1) {
  const std::vector<std::vector<std::int64_t>> pools = {
      {2, 3, 4, 6, 8, 12}, {4, 8, 16},      {10, 20},           {5, 10, 15, 30},
      {6, 12, 24, 48},     {16, 32, 64},    {30, 60, 120, 240}, {7},
      {3, 5, 7, 11}};
  const int processors[] = {1, 2, 3, 4, 8, 16};
  const std::uint64_t budgets[] = {0, 1, 7, 100, std::uint64_t{1} << 20};
  Rng rng(algorithm == UniAlgorithm::kEDF ? 303 : 404);
  int verdicts[3] = {0, 0, 0};
  int single_task = 0, processor_per_task = 0, past_128 = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<std::int64_t>& pool =
        pools[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(pools) - 1))];
    const int m = processors[rng.uniform_int(0, std::ssize(processors) - 1)];
    // Half the sets are small, so m >= n and n = 1 come up often.
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, rng.uniform01() < 0.5 ? 8 : 200));
    single_task += n == 1;
    processor_per_task += static_cast<std::size_t>(m) >= n;
    past_128 += n > 128;
    const double load = rng.uniform(0.3, 1.1) * m / static_cast<double>(n);
    std::vector<UniTask> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      if (!tasks.empty() && rng.uniform01() < 0.25) {
        tasks.push_back(tasks[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(tasks) - 1))]);
        continue;
      }
      const std::int64_t p =
          pool[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(pool) - 1))];
      const std::int64_t e = std::llround(load * static_cast<double>(p)) + rng.uniform_int(-1, 1);
      tasks.push_back(UniTask{std::clamp<std::int64_t>(e, 1, p), p});
    }
    std::vector<UniTask> scaled = tasks;
    for (UniTask& t : scaled) t = UniTask{t.execution * scale, t.period * scale};
    for (const std::uint64_t budget : budgets) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ": m=" << m << " n=" << n
                                      << " max_events=" << budget << " scale=" << scale);
      const GedfResult got = exact_global_schedulable(scaled, m, algorithm, budget);
      const GedfResult want = reference_exact_global_schedulable(scaled, m, algorithm, budget);
      ASSERT_EQ(got.verdict, want.verdict);
      ASSERT_EQ(got.hyperperiod, want.hyperperiod);
      ASSERT_EQ(got.simulated, want.simulated);
      ASSERT_EQ(got.events, want.events);
      ASSERT_EQ(got.first_miss, want.first_miss);
      if (scale > 1) {
        const GedfResult base = exact_global_schedulable(tasks, m, algorithm, budget);
        ASSERT_EQ(got.verdict, base.verdict);
        ASSERT_EQ(got.hyperperiod, base.hyperperiod * scale);
        ASSERT_EQ(got.simulated, base.simulated * scale);
        ASSERT_EQ(got.events, base.events);
        ASSERT_EQ(got.first_miss, base.first_miss < 0 ? -1 : base.first_miss * scale);
      }
      ++verdicts[static_cast<int>(got.verdict)];
    }
  }
  // The corpus must reach every verdict and every tree shape, or it
  // proves less than it claims.
  EXPECT_GT(verdicts[static_cast<int>(GedfVerdict::kSchedulable)], 0);
  EXPECT_GT(verdicts[static_cast<int>(GedfVerdict::kUnschedulable)], 0);
  EXPECT_GT(verdicts[static_cast<int>(GedfVerdict::kBudgetExceeded)], 0);
  EXPECT_GT(single_task, 0);
  EXPECT_GT(processor_per_task, 0);
  EXPECT_GT(past_128, 0);
}

TEST(ExactGedf, MatchesReferenceEventLoopUnderEdf) {
  reference_sweep(UniAlgorithm::kEDF);
}

TEST(ExactGedf, MatchesReferenceEventLoopUnderRm) {
  reference_sweep(UniAlgorithm::kRM);
}

/// Each tree entry packs its key above a 32-bit task index, so keys of
/// 2^40 and more must keep their order in full: a packing that dropped
/// high key bits would reorder releases and jobs here.
TEST(ExactGedf, MatchesReferenceEventLoopWithKeysPast32Bits) {
  reference_sweep(UniAlgorithm::kEDF, std::int64_t{1} << 40);
  reference_sweep(UniAlgorithm::kRM, std::int64_t{1} << 40);
}

/// The test is exact only for a deterministic scheduler, and its tie
/// rule is part of that scheduler: ties go by the task, so the verdict
/// (every GedfResult field) is a function of the multiset of tasks and
/// never of the order they arrive in.
TEST(ExactGedf, VerdictIsTheSameForEveryOrderOfItsInput) {
  const auto all_fields_equal = [](const GedfResult& a, const GedfResult& b) {
    return a.verdict == b.verdict && a.hyperperiod == b.hyperperiod &&
           a.simulated == b.simulated && a.events == b.events &&
           a.first_miss == b.first_miss;
  };
  // Every permutation of small tie-heavy sets, under both algorithms.
  const std::vector<std::vector<UniTask>> sets = {
      {{1, 4}, {2, 4}, {1, 2}, {3, 8}, {2, 4}, {4, 8}},
      {{2, 3}, {2, 3}, {1, 6}, {5, 6}, {3, 6}, {1, 3}},
      {{1, 5}, {3, 10}, {7, 10}, {1, 5}, {4, 5}, {2, 10}},
  };
  for (const UniAlgorithm algorithm : {UniAlgorithm::kEDF, UniAlgorithm::kRM}) {
    for (const std::vector<UniTask>& set : sets) {
      for (const int m : {1, 2, 3}) {
        std::vector<std::size_t> order(set.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        const GedfResult first = exact_global_schedulable(set, m, algorithm);
        do {
          std::vector<UniTask> permuted;
          for (const std::size_t i : order) permuted.push_back(set[i]);
          ASSERT_TRUE(all_fields_equal(exact_global_schedulable(permuted, m, algorithm), first))
              << "m=" << m << " algorithm=" << static_cast<int>(algorithm);
        } while (std::next_permutation(order.begin(), order.end()));
      }
    }
  }
  // Random orders of a 14-task set whose verdict flips when ties go by
  // arrival order (schedulable in canonical order, a miss at t = 40 in
  // the order a client sent it).
  std::vector<UniTask> tasks = {{11, 60}, {1, 5},   {15, 240}, {5, 20}, {1, 5},
                                {3, 16},  {1, 6},   {11, 120}, {2, 16}, {7, 24},
                                {19, 80}, {34, 40}, {4, 24},   {3, 24}};
  const GedfResult arrival = exact_global_schedulable(tasks, 4);
  EXPECT_EQ(arrival.verdict, GedfVerdict::kSchedulable);
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    for (std::size_t i = tasks.size(); i > 1; --i)
      std::swap(tasks[i - 1], tasks[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    ASSERT_TRUE(all_fields_equal(exact_global_schedulable(tasks, 4), arrival)) << "trial " << trial;
  }
}

TEST(ExactGedf, ClockStopsBeforeOverflowWhenHyperperiodSaturates) {
  // Two 0.9-utilization tasks never miss on two processors, but the lcm
  // of their periods saturates, so H is out of reach.  Their releases
  // would pass the largest Time after about a thousand periods; the
  // test must stop there, with no verdict, long before the budget.
  const std::vector<UniTask> tasks = {{8100000000000000, 8999999999999999},
                                      {8100000000000000, 9000000000000000}};
  for (const UniAlgorithm algorithm : {UniAlgorithm::kEDF, UniAlgorithm::kRM}) {
    const GedfResult r = exact_global_schedulable(tasks, 2, algorithm);
    EXPECT_EQ(r.verdict, GedfVerdict::kBudgetExceeded);
    EXPECT_EQ(r.hyperperiod, std::numeric_limits<Time>::max());
    EXPECT_GT(r.events, 0u);
    EXPECT_LT(r.events, std::uint64_t{1} << 20);
    EXPECT_GE(r.simulated, 0);
    EXPECT_GT(r.simulated, std::numeric_limits<Time>::max() - 9000000000000000);
  }
}

TEST(ExactGedf, HyperperiodAtTheLargestTimeIsReached) {
  // A true H equal to the largest Time: the releases due at H need no
  // successor, so the test ends clean instead of stepping past it.
  constexpr Time kMax = std::numeric_limits<Time>::max();
  const GedfResult r = exact_global_schedulable({UniTask{1, kMax}}, 1);
  EXPECT_EQ(r.verdict, GedfVerdict::kSchedulable);
  EXPECT_EQ(r.hyperperiod, kMax);
  EXPECT_EQ(r.simulated, kMax);
  EXPECT_EQ(r.events, 2u);
}

}  // namespace
}  // namespace pfair::serve
