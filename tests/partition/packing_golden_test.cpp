// Golden outputs for the three packers that feed the paper's
// partitioning results: partition_uni (every heuristic under every
// acceptance test, with bin caps that bind and caps that do not), the
// Eq.-(3) EDF-FF packing edf_ff_partition (with and without a cap) and
// pack_into_supertasks (0-4 groups, reweighting on and off).  One FNV-1a
// digest per seeded input covers every field the callers read: the
// assignment, the bin count and the feasibility flag; for EDF-FF the
// bits of each inflated utilization and of their total; for supertasks
// each group's components in order with its competing weight, the
// migratory list in order and the total weight.  The table was recorded
// before the packers were merged into one, so a changed fit, tie, order
// or rounding moves a digest.
//
// The partition_uni corpus ends with the 20 sets on which first-fit EDF
// was once checked against a Rational-utilization partitioner, so their
// assignments stay pinned.  Other inputs come from a local splitmix64
// stream, so the corpus never moves with util::Rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/supertask_packing.h"
#include "overhead/inflation.h"
#include "partition/uni_partition.h"
#include "util/rng.h"

namespace pfair {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v) >> (8 * i) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

enum class Profile : std::uint8_t { kLight, kHeavy, kMixed };

constexpr Profile kProfiles[] = {Profile::kLight, Profile::kHeavy, Profile::kMixed};

std::int64_t execution_for(SplitMix& rng, Profile profile, std::int64_t p) {
  switch (profile) {
    case Profile::kLight: return rng.in(1, std::max<std::int64_t>(1, p / 5));
    case Profile::kHeavy: return rng.in((p + 1) / 2, p);
    case Profile::kMixed: break;
  }
  return rng.in(0, 3) == 0 ? p : rng.in(1, p);
}

// ---- partition_uni ---------------------------------------------------

constexpr Heuristic kHeuristics[] = {Heuristic::kFirstFit, Heuristic::kBestFit,
                                     Heuristic::kWorstFit, Heuristic::kFirstFitDecreasing,
                                     Heuristic::kBestFitDecreasing};
constexpr Acceptance kAcceptances[] = {Acceptance::kEdfUtilization, Acceptance::kRmLiuLayland,
                                       Acceptance::kRmExact};
constexpr std::size_t kUniSizes[] = {1, 3, 8, 16, 30, 60};
constexpr std::size_t kRationalCases = 20;

/// Sets of periods 2-60 (harmonic ones among them) in three profiles,
/// then the Rational-partitioner cases.
std::vector<std::vector<UniTask>> uni_corpus() {
  std::vector<std::vector<UniTask>> out;
  SplitMix rng{0x9ac1ull};
  for (const std::size_t n : kUniSizes) {
    for (const Profile profile : kProfiles) {
      for (const bool harmonic : {false, true}) {
        std::vector<UniTask> tasks;
        for (std::size_t k = 0; k < n; ++k) {
          const std::int64_t p = harmonic ? std::int64_t{4} << rng.in(0, 3) : rng.in(2, 60);
          tasks.push_back({execution_for(rng, profile, p), p});
        }
        out.push_back(std::move(tasks));
      }
    }
  }
  Rng rational(0x42);
  for (std::size_t trial = 0; trial < kRationalCases; ++trial) {
    Rng trial_rng = rational.fork(trial);
    std::vector<UniTask> tasks;
    const int n = static_cast<int>(trial_rng.uniform_int(3, 20));
    for (int k = 0; k < n; ++k) {
      const std::int64_t p = trial_rng.uniform_int(2, 30);
      const std::int64_t e = trial_rng.uniform_int(1, p);
      tasks.push_back({e, p});
    }
    out.push_back(std::move(tasks));
  }
  return out;
}

/// Caps for one set: one below the utilization ceiling (binds whenever
/// the set needs more than one bin), the ceiling itself (binds only on
/// fragmentation) and one that never binds.
std::vector<int> caps_for(const std::vector<UniTask>& tasks) {
  double total = 0.0;
  for (const UniTask& t : tasks) total += t.utilization();
  const int need = std::max(1, static_cast<int>(std::ceil(total)));
  return {std::max(1, need - 1), need, 1 << 10};
}

std::uint64_t uni_digest(const std::vector<UniTask>& tasks) {
  Fnv d;
  for (const Heuristic h : kHeuristics) {
    for (const Acceptance acc : kAcceptances) {
      for (const int cap : caps_for(tasks)) {
        const UniPartitionResult r = partition_uni(tasks, cap, h, acc);
        for (const int a : r.assignment) d.add(std::int64_t{a});
        d.add(std::int64_t{r.processors_used});
        d.add(std::int64_t{r.feasible});
      }
    }
  }
  return d.h;
}

// ---- edf_ff_partition ------------------------------------------------

struct EdfFfCase {
  std::vector<OhTask> tasks;
  OverheadParams params;
};

/// Fig.-3-like sets (periods 10-1000 ms, utilizations up to 0.9) at 4
/// sizes, under the paper's costs, under no scheduling or switch costs,
/// and under cache delays large enough that the longer-period term
/// decides placements.
std::vector<EdfFfCase> edf_ff_corpus() {
  std::vector<EdfFfCase> out;
  SplitMix rng{0xedffull};
  OverheadParams none;
  none.context_switch_us = 0.0;
  none.sched = SchedCostModel{};
  for (const std::size_t n : {std::size_t{2}, std::size_t{9}, std::size_t{40}, std::size_t{120}}) {
    for (const Profile profile : kProfiles) {
      for (int flavour = 0; flavour < 3; ++flavour) {
        EdfFfCase c;
        c.params = flavour == 1 ? none : OverheadParams{};
        const std::int64_t delay_max = flavour == 2 ? 20000 : 100;
        for (std::size_t k = 0; k < n; ++k) {
          const std::int64_t p_ms = rng.in(10, 1000);
          const std::int64_t e_tenths = execution_for(rng, profile, p_ms * 9);  // <= 0.9 p
          c.tasks.push_back(OhTask{static_cast<double>(e_tenths) * 100.0,
                                   static_cast<double>(p_ms) * 1000.0,
                                   static_cast<double>(rng.in(0, delay_max))});
        }
        out.push_back(std::move(c));
      }
    }
  }
  return out;
}

void add_edf_ff(Fnv& d, const EdfFfResult& r) {
  for (const int a : r.assignment) d.add(std::int64_t{a});
  for (const double u : r.inflated_util) d.add(u);
  d.add(r.total_inflated_utilization);
  d.add(std::int64_t{r.processors});
  d.add(std::int64_t{r.feasible});
}

std::uint64_t edf_ff_digest(const EdfFfCase& c) {
  Fnv d;
  const EdfFfResult open = edf_ff_partition(c.tasks, c.params);
  add_edf_ff(d, open);
  for (const int cap : {std::max(1, open.processors - 1), open.processors})
    add_edf_ff(d, edf_ff_partition(c.tasks, c.params, cap));
  return d.h;
}

// ---- pack_into_supertasks --------------------------------------------

/// Light, heavy and mixed sets of 4-24 tasks with periods 2-40.
std::vector<TaskSet> supertask_corpus() {
  std::vector<TaskSet> out;
  SplitMix rng{0x5a9eull};
  for (const std::size_t n : {std::size_t{4}, std::size_t{10}, std::size_t{24}}) {
    for (const Profile profile : kProfiles) {
      for (int rep = 0; rep < 2; ++rep) {
        TaskSet set;
        for (std::size_t k = 0; k < n; ++k) {
          const std::int64_t p = rng.in(2, 40);
          set.add(make_task(execution_for(rng, profile, p), p));
        }
        out.push_back(std::move(set));
      }
    }
  }
  return out;
}

void add_task(Fnv& d, const Task& t) {
  d.add(t.execution);
  d.add(t.period);
}

std::uint64_t supertask_digest(const TaskSet& set) {
  Fnv d;
  for (int groups = 0; groups <= 4; ++groups) {
    for (const bool reweight : {true, false}) {
      const PackingResult r = pack_into_supertasks(set, groups, reweight);
      d.add(static_cast<std::int64_t>(r.supertasks.size()));
      for (const SupertaskSpec& s : r.supertasks) {
        d.add(static_cast<std::int64_t>(s.components.size()));
        for (const Task& c : s.components) add_task(d, c);
        d.add(s.execution);
        d.add(s.period);
      }
      d.add(static_cast<std::int64_t>(r.migratory.size()));
      for (const Task& t : r.migratory) add_task(d, t);
      d.add(r.total_weight.num());
      d.add(r.total_weight.den());
    }
  }
  return d.h;
}

// Recorded from the separate packers, in corpus order: partition_uni's
// 56 sets, then EDF-FF's 36, then the supertasks' 18.
constexpr std::uint64_t kGolden[] = {
    0x582ecd459f0bb083ull, 0x582ecd459f0bb083ull, 0x582ecd459f0bb083ull,
    0x582ecd459f0bb083ull, 0x582ecd459f0bb083ull, 0x582ecd459f0bb083ull,
    0x3ddf21512fce9243ull, 0x3ddf21512fce9243ull, 0xb805ec3526cdf4e8ull,
    0xd1b7967633bc00e8ull, 0xb805ec3526cdf4e8ull, 0xe6da24552e61461aull,
    0x59830ae4bd71b9baull, 0xa156eca0b88e798aull, 0xda833d582a53e834ull,
    0x059251c37f3fe5c5ull, 0xacd7026f6edad5ccull, 0xc1d0d04f5542ee34ull,
    0x97917328f4e1e858ull, 0x2fdb486ca0117984ull, 0x37f53c6c36bc98f7ull,
    0xbad1931bb642c256ull, 0x7e7679f4aacdb964ull, 0xb42a9a4d1c76481bull,
    0xb610b0e1099d3ad8ull, 0x14b6d3cc485256cdull, 0xf3ed5d899225d8d3ull,
    0x47fa611ca4340642ull, 0x68103d0f64128befull, 0x4dd0e4c8c9108800ull,
    0xdcf00d4bfd7e902eull, 0xca0b7f6fda63525cull, 0x2bf2bb8291209cbdull,
    0x8f4b8fad8570e4aaull, 0x5fb05ecd5f53214eull, 0x9cd4a584f6943f80ull,
    0x47da3b0d4f879034ull, 0xa4325650984dbe3bull, 0xceea359b9d879457ull,
    0x3fc1174db08dd44full, 0xa527defe237eea6full, 0xf48fec212d047ca8ull,
    0x05692394216ede36ull, 0x2e75cddc282b8a95ull, 0x685cde3da4f87826ull,
    0x50d9b0b5ce3a9a9dull, 0x6687c8059f56a73dull, 0x189f96f53536acb9ull,
    0x0bc23a0d1ecaab5full, 0x62cb408a8045ffbfull, 0xaa12d6669637bd87ull,
    0xdd9338bdf120c81aull, 0x2517a5e57f9ab61eull, 0x27c8adbcad3ba11dull,
    0xdf9a0683e18af63bull, 0xc4d86185cccbf59bull, 0xd2ad8fdaf4cdc00bull,
    0x7639d47abc9bf12eull, 0x07afa29c676fce8dull, 0x4e50a90e26f2ba86ull,
    0xdb68c09eea1ca45eull, 0xa1fff17d490538e6ull, 0x593b77babe77ea6aull,
    0x0f85f523746dbacfull, 0x0aafe8292014f6a5ull, 0x78b3a3ceec5d81b9ull,
    0x1111204ac4d8e9d7ull, 0x4795b4fe0b8f1d8eull, 0x68c414f9872697a7ull,
    0x46a5d50944395503ull, 0xded3674a3f175394ull, 0xdbc21b3863b1c892ull,
    0xcdfaa5c462285facull, 0xada7fd62b42bb26dull, 0xf448637a8759ab51ull,
    0x8a4b2bc711ed362bull, 0xf6b4b6b129c749efull, 0x787b2ef2e976053eull,
    0x62d763145467ef5bull, 0x861dd48e89fb0684ull, 0x6cb66558e4e70f0cull,
    0x03d8480f2d84c2c2ull, 0x916efa27edb53306ull, 0xcbb4c7c478754d1cull,
    0xe7f734de9d0f4c83ull, 0xe6b94c5601687cfdull, 0xacf44d44548b66a3ull,
    0x58521926a98d1f6eull, 0x9c7ad8aee5738fe8ull, 0xcea0c520432c2ad3ull,
    0x388e1aa8d18b42c0ull, 0xe3a780e0c58a9487ull, 0x8fb1a7a27367cbefull,
    0x7b93e3265d82d5c3ull, 0x0e224fc952b526daull, 0x11ab36fb1e8eb738ull,
    0xd10a9456459262e3ull, 0xc49e432b90d15003ull, 0x44c5beb7755a7429ull,
    0xed2e76b01f10b295ull, 0xfdc4ce6d837470f9ull, 0x17f7f709eb1b7a32ull,
    0x01486b171fb72d72ull, 0xc97a92da202ccdacull, 0x6eeb4bda31614ba0ull,
    0x2e908f20fa7d6309ull, 0xc2c73d3a74206c4bull, 0x6a7133929c108c01ull,
    0x34ea47c2cc517c07ull, 0x09bcfacfe907df03ull,
};

std::vector<std::uint64_t> digests() {
  std::vector<std::uint64_t> out;
  for (const auto& tasks : uni_corpus()) out.push_back(uni_digest(tasks));
  for (const EdfFfCase& c : edf_ff_corpus()) out.push_back(edf_ff_digest(c));
  for (const TaskSet& set : supertask_corpus()) out.push_back(supertask_digest(set));
  return out;
}

TEST(PackingGolden, PackersMatchTheRecordedTable) {
  const std::vector<std::uint64_t> got = digests();
  ASSERT_EQ(got.size(), std::size(kGolden));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == kGolden[i]) continue;
    ++bad;
    ADD_FAILURE() << "case " << i << ": digest 0x" << std::hex << got[i] << " != recorded 0x"
                  << kGolden[i];
  }
  EXPECT_EQ(bad, 0u);
}

/// The corpus reaches what it claims to: binding caps, every acceptance
/// test refusing somewhere, the Eq.-(3) delay term moving a placement,
/// and supertask groups that overflow into the migratory list.
TEST(PackingGolden, CorpusReachesCapsRefusalsAndSpills) {
  int capped = 0;
  int rm_stricter = 0;
  for (const auto& tasks : uni_corpus()) {
    const std::vector<int> caps = caps_for(tasks);
    if (!partition_uni(tasks, caps.front(), Heuristic::kFirstFit, Acceptance::kEdfUtilization)
             .feasible)
      ++capped;
    if (partition_uni(tasks, 1 << 10, Heuristic::kFirstFit, Acceptance::kRmLiuLayland)
            .processors_used >
        partition_uni(tasks, 1 << 10, Heuristic::kFirstFit, Acceptance::kEdfUtilization)
            .processors_used)
      ++rm_stricter;
  }
  EXPECT_GT(capped, 10);
  EXPECT_GT(rm_stricter, 10);

  int delay_moved = 0;
  int edf_capped = 0;
  for (const EdfFfCase& c : edf_ff_corpus()) {
    const EdfFfResult r = edf_ff_partition(c.tasks, c.params);
    for (std::size_t i = 0; i < c.tasks.size(); ++i) {
      const double base = inflate_edf_us(c.tasks[i], 0.0, c.params, c.tasks.size());
      if (r.assignment[i] >= 0 && r.inflated_util[i] > base / c.tasks[i].period_us) ++delay_moved;
    }
    if (r.processors > 1 && !edf_ff_partition(c.tasks, c.params, r.processors - 1).feasible)
      ++edf_capped;
  }
  EXPECT_GT(delay_moved, 10);
  EXPECT_GT(edf_capped, 5);

  int spilled = 0;
  for (const TaskSet& set : supertask_corpus())
    if (!pack_into_supertasks(set, 2).migratory.empty()) ++spilled;
  EXPECT_GT(spilled, 3);
}

}  // namespace
}  // namespace pfair
