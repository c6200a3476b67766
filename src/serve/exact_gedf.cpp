#include "serve/exact_gedf.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>

#include "util/math.h"

namespace pfair::serve {

namespace {

/// (release time or priority key) << 32 | task index, packed in one
/// integer.  Keys are non-negative Times, so one integer compare orders
/// entries as the (key, index) pair would: equal times and keys go to
/// the lower index.
using Entry = Int128;

constexpr Entry pack(Time key, std::uint32_t task) noexcept {
  return (static_cast<Entry>(key) << 32) | task;
}
constexpr Time key_of(Entry e) noexcept { return static_cast<Time>(e >> 32); }
constexpr std::uint32_t task_of(Entry e) noexcept { return static_cast<std::uint32_t>(e); }

/// An empty leaf.  Keys are below 2^63, so every packed entry is below
/// 2^95 and sorts ahead of it.
constexpr Entry kEmpty = Entry{1} << 96;

/// A tournament (winner) tree over the task indices: leaf i holds task
/// i's entry or kEmpty, the leaves are padded to a power of two with
/// kEmpty, and each internal node holds the smaller of its two
/// children, so the root is the least entry.  Changing a leaf rewrites
/// each of its log2(leaves) ancestors with a select and no early exit,
/// so no compare decides a branch: tied and interleaved keys follow no
/// pattern a branch predictor could learn across sets.
class WinnerTree {
 public:
  /// Leaf i holds first(i) for each of the n tasks.
  template <typename First>
  WinnerTree(std::size_t n, First first) : leaves_(std::bit_ceil(n)), node_(2 * leaves_, kEmpty) {
    for (std::size_t i = 0; i < n; ++i) node_[leaves_ + i] = first(static_cast<std::uint32_t>(i));
    for (std::size_t k = leaves_ - 1; k > 0; --k) node_[k] = std::min(node_[2 * k], node_[2 * k + 1]);
  }

  [[nodiscard]] Entry top() const noexcept { return node_[1]; }

  void set(std::uint32_t task, Entry e) noexcept {
    std::size_t k = leaves_ + task;
    node_[k] = e;
    for (; k > 1; k >>= 1) {
      const Entry sibling = node_[k ^ 1];
      e = sibling < e ? sibling : e;
      node_[k >> 1] = e;
    }
  }

 private:
  std::size_t leaves_;
  std::vector<Entry> node_;  ///< root at 1, leaf i at leaves_ + i
};

}  // namespace

const char* to_string(GedfVerdict v) noexcept {
  switch (v) {
    case GedfVerdict::kSchedulable: return "schedulable";
    case GedfVerdict::kUnschedulable: return "unschedulable";
    case GedfVerdict::kBudgetExceeded: return "budget-exceeded";
  }
  return "unknown";
}

GedfResult exact_global_schedulable(const std::vector<UniTask>& input, int m,
                                    UniAlgorithm algorithm, std::uint64_t max_events) {
  // Ties go by the task — (period, execution), then index — as in
  // GlobalJobSimulator.  Simulated in that canonical order, the index
  // alone breaks them, and the verdict depends only on the multiset.
  // The admission gate's workloads are canonical already.
  const auto canonical = [](const UniTask& a, const UniTask& b) {
    return a.period != b.period ? a.period < b.period : a.execution < b.execution;
  };
  std::vector<UniTask> sorted;
  if (!std::is_sorted(input.begin(), input.end(), canonical)) {
    sorted = input;
    std::stable_sort(sorted.begin(), sorted.end(), canonical);
  }
  const std::vector<UniTask>& tasks = sorted.empty() ? input : sorted;

  GedfResult out;
  if (m < 1) m = 1;
  if (tasks.empty()) {
    out.verdict = GedfVerdict::kSchedulable;
    return out;
  }
  for (const UniTask& t : tasks) {
    if (!t.valid()) {  // never schedulable; also keeps the arithmetic safe
      out.verdict = GedfVerdict::kUnschedulable;
      out.first_miss = 0;
      return out;
    }
  }

  Time h = 1;
  for (const UniTask& t : tasks) h = saturating_lcm(h, t.period);
  out.hyperperiod = h;

  const std::size_t n = tasks.size();
  // Per-task job state.  Implicit deadlines mean at most one live job
  // per task — a live predecessor at its release IS the miss that ends
  // the test, so no job queue is needed.
  //
  // Two winner trees and one array, sized here once, so no event
  // allocates:
  //
  //   - `releases`, keyed (next release, task) for every task: due
  //     releases come off its root in (time, index) order, so the
  //     *first* miss found is the one an index sweep would find;
  //   - `running`, the live jobs that hold a processor, sorted by
  //     packed (priority key, index) — deadline for EDF, period for RM,
  //     ties by canonical index, matching
  //     GlobalJobSimulator::higher_priority;
  //   - `waiting`, the other live jobs in the same order, at their
  //     task's leaf; every other leaf is empty.
  //
  // Every running job precedes every waiting job, and `running` holds
  // min(m, live) jobs, so it is exactly the m highest-priority live
  // jobs.  A release rewrites its task's path in `releases` and at most
  // one path in `waiting`; a job taken off `waiting` rewrites its own.
  // An event costs O(m + log n) per release or completion.
  const std::size_t cap = std::min(static_cast<std::size_t>(m), n);
  WinnerTree releases(n, [](std::uint32_t i) { return pack(0, i); });
  WinnerTree waiting(n, [](std::uint32_t) { return kEmpty; });
  std::vector<Entry> running;
  running.reserve(cap);
  std::vector<std::int64_t> remaining(n, 0);
  const bool edf = algorithm == UniAlgorithm::kEDF;

  // Places a released job, keeping every running job ahead of every
  // waiting one.
  const auto make_live = [&](Entry job) {
    if (running.size() == cap) {
      if (running.back() < job) {
        waiting.set(task_of(job), job);
        return;
      }
      waiting.set(task_of(running.back()), running.back());
      running.pop_back();
    }
    running.insert(std::upper_bound(running.begin(), running.end(), job), job);
  };

  Time t = 0;
  while (true) {
    // Every period divides H, so every task is due at H: a live job
    // there has missed its deadline.  A clean pass through t == H means
    // every job released in [0, H) completed by its deadline; the state
    // at H equals the state at 0, so the schedule repeats forever.
    // (t never steps past a release, so it meets a true H exactly; a
    // saturated H is out of reach, as the clock guard below stops first.)
    if (t >= h) {
      out.verdict = running.empty() ? GedfVerdict::kSchedulable : GedfVerdict::kUnschedulable;
      if (!running.empty()) out.first_miss = t;
      out.simulated = t;
      return out;
    }
    // Releases due now; a live predecessor has missed its deadline
    // (deadline == this release under implicit deadlines).
    while (key_of(releases.top()) == t) {
      const std::uint32_t i = task_of(releases.top());
      if (remaining[i] > 0) {
        out.verdict = GedfVerdict::kUnschedulable;
        out.first_miss = t;
        out.simulated = t;
        return out;
      }
      // Before H a next release can only pass the largest Time when H
      // saturated; the test cannot reach H then, so it has no verdict.
      const Time period = tasks[i].period;
      if (t > std::numeric_limits<Time>::max() - period) {
        out.verdict = GedfVerdict::kBudgetExceeded;
        out.simulated = t;
        return out;
      }
      remaining[i] = tasks[i].execution;
      releases.set(i, pack(t + period, i));
      make_live(pack(edf ? t + period : period, i));
    }
    if (out.events >= max_events) {
      out.verdict = GedfVerdict::kBudgetExceeded;
      out.simulated = t;
      return out;
    }
    ++out.events;

    // The running set is constant until the next release or the first
    // completion among the m highest-priority live jobs.
    Time delta = key_of(releases.top()) - t;
    for (const Entry job : running) delta = std::min<Time>(delta, remaining[task_of(job)]);
    std::size_t kept = 0;
    for (const Entry job : running) {
      remaining[task_of(job)] -= delta;
      if (remaining[task_of(job)] > 0) running[kept++] = job;
    }
    running.resize(kept);
    // Waiting jobs come off their tree in priority order, each behind
    // every job still running.
    while (running.size() < cap && waiting.top() != kEmpty) {
      const Entry job = waiting.top();
      waiting.set(task_of(job), kEmpty);
      running.push_back(job);
    }
    t += delta;
  }
}

}  // namespace pfair::serve
