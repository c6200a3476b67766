// The high-throughput admission machinery: the flat TaskMirror and
// its multiset fingerprint, the incremental Tier-2 memo (byte-equal
// decisions with the cache on or off), batch lines answering like their
// sub-requests sent alone, and ObjectWriter against the dumped-Object
// form it replaces on the serving hot path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "serve/task_mirror.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

// --- TaskMirror -----------------------------------------------------

TEST(TaskMirror, MatchesAReferenceMapUnderChurn) {
  TaskMirror mirror;
  std::map<TaskId, UniTask> ref;
  Rng rng(7);
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<TaskId>(rng.uniform_int(0, 300));
    if (rng.uniform_int(0, 2) != 0) {
      const UniTask t{rng.uniform_int(1, 9), rng.uniform_int(10, 40)};
      mirror.upsert(id, t);
      ref[id] = t;
    } else {
      EXPECT_EQ(mirror.erase(id), ref.erase(id) > 0) << "step " << step;
    }
  }
  EXPECT_EQ(mirror.size(), ref.size());
  Rational total(0);
  for (const auto& [id, t] : ref) {
    total = total + Rational(t.execution, t.period);
    const UniTask* found = mirror.find(id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->execution, t.execution);
    EXPECT_EQ(found->period, t.period);
  }
  EXPECT_EQ(mirror.total(), total);
  // Ids past the table, including ones no simulator ever assigns, read
  // as absent and change nothing.
  for (const TaskId never : {TaskId{999}, TaskId{4294967294u}, kNoTask}) {
    EXPECT_EQ(mirror.find(never), nullptr) << never;
    EXPECT_FALSE(mirror.erase(never)) << never;
    EXPECT_EQ(mirror.total_excluding(never), total) << never;
    EXPECT_EQ(mirror.count_excluding(never), ref.size()) << never;
  }
}

TEST(TaskMirror, EraseAndReinsertCyclesKeepSizeAndTotalExact) {
  TaskMirror mirror;
  // Erase/re-insert cycles over a small id range: an erased id reads
  // as absent, a re-inserted one counts once, and no cycle leaves a
  // trace in the aggregates.
  for (int cycle = 0; cycle < 200; ++cycle) {
    for (TaskId id = 0; id < 8; ++id) mirror.upsert(id, UniTask{1, 4 + id});
    ASSERT_EQ(mirror.size(), 8u);
    ASSERT_EQ(mirror.total(), Rational(1, 4) + Rational(1, 5) + Rational(1, 6) +
                                  Rational(1, 7) + Rational(1, 8) + Rational(1, 9) +
                                  Rational(1, 10) + Rational(1, 11));
    for (TaskId id = 0; id < 8; ++id) EXPECT_TRUE(mirror.erase(id));
    for (TaskId id = 0; id < 8; ++id) EXPECT_EQ(mirror.find(id), nullptr);
    EXPECT_FALSE(mirror.erase(3));
  }
  EXPECT_EQ(mirror.size(), 0u);
  EXPECT_EQ(mirror.total(), Rational(0));
  mirror.upsert(3, UniTask{1, 2});
  ASSERT_NE(mirror.find(3), nullptr);
  EXPECT_EQ(mirror.size(), 1u);
  EXPECT_EQ(mirror.total(), Rational(1, 2));
}

TEST(TaskMirror, FingerprintDependsOnTheMultisetNotArrivalOrder) {
  const UniTask kNull{0, 0};  // sentinel: fingerprint the set itself
  TaskMirror forward;
  TaskMirror backward;
  std::vector<UniTask> tasks;
  for (int i = 0; i < 40; ++i) tasks.push_back(UniTask{1 + i % 5, 10 + i % 7});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    forward.upsert(static_cast<TaskId>(i), tasks[i]);
    const std::size_t j = tasks.size() - 1 - i;
    backward.upsert(static_cast<TaskId>(j), tasks[j]);
  }
  // Same multiset, different insertion order: the fingerprint is a
  // commutative sum over tasks.
  EXPECT_EQ(forward.fingerprint_with(kNull, kNoTask),
            backward.fingerprint_with(kNull, kNoTask));

  // Ids do not feed the fingerprint — two ids swapping tasks is a no-op.
  TaskMirror swapped;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    swapped.upsert(static_cast<TaskId>((i + 1) % tasks.size()), tasks[i]);
  EXPECT_EQ(forward.fingerprint_with(kNull, kNoTask),
            swapped.fingerprint_with(kNull, kNoTask));

  // Distinct multisets must not collide (40 vs 39 tasks).
  TaskMirror shorter;
  for (std::size_t i = 0; i + 1 < tasks.size(); ++i)
    shorter.upsert(static_cast<TaskId>(i), tasks[i]);
  EXPECT_FALSE(forward.fingerprint_with(kNull, kNoTask) ==
               shorter.fingerprint_with(kNull, kNoTask));
}

TEST(TaskMirror, FingerprintWithMatchesTheActualMutation) {
  const UniTask kNull{0, 0};
  TaskMirror mirror;
  for (TaskId id = 0; id < 10; ++id) mirror.upsert(id, UniTask{1 + id % 3, 8 + id});
  const UniTask extra{2, 11};

  // Predicted join fingerprint == fingerprint after really joining.
  const MirrorFingerprint predicted_join = mirror.fingerprint_with(extra, kNoTask);
  TaskMirror joined = mirror;
  joined.upsert(100, extra);
  EXPECT_EQ(predicted_join, joined.fingerprint_with(kNull, kNoTask));

  // Predicted reweight fingerprint == fingerprint after erase+insert.
  const MirrorFingerprint predicted_rw = mirror.fingerprint_with(extra, 4);
  TaskMirror reweighted = mirror;
  reweighted.erase(4);
  reweighted.upsert(4, extra);
  EXPECT_EQ(predicted_rw, reweighted.fingerprint_with(kNull, kNoTask));

  // Leave/undo: erasing a task returns the fingerprint to its old value.
  const MirrorFingerprint before = mirror.fingerprint_with(kNull, kNoTask);
  mirror.upsert(200, extra);
  mirror.erase(200);
  EXPECT_EQ(before, mirror.fingerprint_with(kNull, kNoTask));
}

TEST(TaskMirror, WorkloadIsCanonicalInPeriodThenExecution) {
  TaskMirror a;
  TaskMirror b;
  const std::vector<UniTask> tasks = {{3, 20}, {1, 5}, {2, 20}, {1, 5}, {4, 9}};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    a.upsert(static_cast<TaskId>(i), tasks[i]);
    b.upsert(static_cast<TaskId>(i), tasks[tasks.size() - 1 - i]);
  }
  const std::vector<UniTask> wa = a.workload_with(UniTask{0, 0}, kNoTask);
  const std::vector<UniTask> wb = b.workload_with(UniTask{0, 0}, kNoTask);
  ASSERT_EQ(wa.size(), tasks.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].period, wb[i].period);
    EXPECT_EQ(wa[i].execution, wb[i].execution);
    if (i > 0) {
      EXPECT_LE(std::make_pair(wa[i - 1].period, wa[i - 1].execution),
                std::make_pair(wa[i].period, wa[i].execution));
    }
  }
}

TEST(TaskMirror, ExclusionAggregatesDropExactlyOneTask) {
  TaskMirror mirror;
  mirror.upsert(0, UniTask{1, 2});   // weight 1/2
  mirror.upsert(1, UniTask{3, 4});   // weight 3/4
  mirror.upsert(2, UniTask{1, 10});  // weight 1/10
  EXPECT_EQ(mirror.total_excluding(1), Rational(1, 2) + Rational(1, 10));
  EXPECT_EQ(mirror.count_excluding(1), 2u);
  EXPECT_EQ(mirror.total_excluding(kNoTask), mirror.total());
  EXPECT_EQ(mirror.total_excluding(static_cast<TaskId>(77)), mirror.total());
  // Dropping the current max exposes the runner-up against a light
  // candidate; a heavy candidate wins outright.
  EXPECT_EQ(mirror.u_max_with(UniTask{1, 100}, 1), Rational(1, 2));
  EXPECT_EQ(mirror.u_max_with(UniTask{9, 10}, kNoTask), Rational(9, 10));
  // A second task in the excluded task's class keeps that class.
  mirror.upsert(3, UniTask{3, 4});
  EXPECT_EQ(mirror.u_max_with(UniTask{1, 100}, 1), Rational(3, 4));
}

TEST(TaskMirror, UMaxIsExactPastInt64CrossProducts) {
  // Each (lighter, heavier) pair's cross products e·p' pass 9.2e18,
  // where a comparison in int64 wraps and picks the lighter task.  The
  // weights are ≈ 0.3449 < 0.3656, 0.3613 < 0.3898 and 0.3620 < 0.4654.
  struct Pair {
    UniTask light, heavy;
  };
  const Pair pairs[] = {
      {{2113365958730176, 6126933103096309}, {3007582712376625, 8226161561168607}},
      {{2970933677285452, 8222209650546942}, {2465608406281118, 6324635148134705}},
      {{2843182148981984, 7854008534861993}, {3302656532930410, 7096509499740639}},
  };
  const UniTask kTiny{1, 1000};
  for (const Pair& p : pairs) {
    ASSERT_LT(p.light.utilization(), p.heavy.utilization());
    const Rational heavy(p.heavy.execution, p.heavy.period);
    const Rational light(p.light.execution, p.light.period);
    for (const bool heavy_first : {false, true}) {
      TaskMirror mirror;
      mirror.upsert(heavy_first ? 0 : 1, p.heavy);
      mirror.upsert(heavy_first ? 1 : 0, p.light);
      const TaskId heavy_id = heavy_first ? 0 : 1;
      EXPECT_EQ(mirror.u_max_with(kTiny, kNoTask), heavy) << heavy_first;
      // Candidate against the committed task, in both roles.
      TaskMirror one;
      one.upsert(0, heavy_first ? p.heavy : p.light);
      EXPECT_EQ(one.u_max_with(heavy_first ? p.light : p.heavy, kNoTask), heavy);
      // Excluding the heavier task leaves the lighter one.
      EXPECT_EQ(mirror.u_max_with(kTiny, heavy_id), light) << heavy_first;
    }
  }
}

// --- Tier-2 memoization ---------------------------------------------

AdmissionConfig gedf_config(std::size_t memo_capacity) {
  AdmissionConfig c;
  c.kind = engine::SchedulerKind::kGlobalJob;
  c.processors = 2;
  c.exact_budget = 1u << 14;  // small: keep the exact sims test-fast
  c.memo_capacity = memo_capacity;
  return c;
}

TEST(TierTwoMemo, RepeatDecisionsHitAndStayIdentical) {
  AdmissionController gate(gedf_config(1u << 10));
  // Dhall-style set: heavy task + light tasks passes Tier 0/1 checks
  // narrowly enough to force the exact test.
  gate.commit(0, UniTask{9, 10});
  gate.commit(1, UniTask{1, 10});
  const UniTask cand{5, 7};
  const Decision cold = gate.decide_join(cand);
  const std::uint64_t misses_after_cold = gate.memo_misses();
  const Decision warm = gate.decide_join(cand);
  EXPECT_GT(gate.memo_hits(), 0u);
  EXPECT_EQ(gate.memo_misses(), misses_after_cold);  // no recompute
  EXPECT_EQ(cold.admit, warm.admit);
  EXPECT_EQ(cold.tier, warm.tier);
  EXPECT_EQ(cold.approx, warm.approx);
  EXPECT_EQ(cold.exact_events, warm.exact_events);
  EXPECT_STREQ(cold.reason, warm.reason);
}

DaemonConfig storm_config(std::size_t memo_capacity) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kGlobalJob;
  c.processors = 2;
  c.exact_budget = 1u << 14;
  c.memo_capacity = memo_capacity;
  return c;
}

std::string serve_string(Daemon& d, const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  d.serve(in, out);
  return out.str();
}

std::string storm_stream() {
  GenConfig gc;
  gc.count = 400;
  gc.seed = 1234;
  gc.load = 1.8;
  return generate_requests(gc);
}

TEST(TierTwoMemo, SeededStormIsByteEqualWithTheMemoOff) {
  const std::string requests = storm_stream();
  Daemon with_memo(storm_config(1u << 12));
  Daemon without_memo(storm_config(0));
  const std::string a = serve_string(with_memo, requests);
  const std::string b = serve_string(without_memo, requests);
  EXPECT_EQ(a, b);
  // The memo must actually have been exercised, not vacuously equal.
  EXPECT_GT(with_memo.controller().memo_hits(), 0u);
  EXPECT_EQ(without_memo.controller().memo_hits(), 0u);
}

TEST(Batching, BatchLinesAnswerLikeTheirSubRequestsArrivingAlone) {
  const std::string requests = storm_stream();
  Daemon plain(storm_config(1u << 12));
  const std::string baseline = serve_string(plain, requests);
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{64}}) {
    Daemon d(storm_config(1u << 12));
    EXPECT_EQ(serve_string(d, batch_requests(requests, size)), baseline)
        << "size=" << size;
    // A batch line is decided request by request, like the plain
    // stream, so the memo sees the same lookups.
    EXPECT_EQ(d.controller().memo_hits(), plain.controller().memo_hits()) << "size=" << size;
    EXPECT_EQ(d.controller().memo_misses(), plain.controller().memo_misses())
        << "size=" << size;
  }
}

// --- ObjectWriter ---------------------------------------------------

TEST(ObjectWriter, MatchesTheDumpedObjectForm) {
  using obs::json::Object;
  using obs::json::Value;
  Object o;
  o.emplace("admit", Value(true));
  o.emplace("events", Value(static_cast<double>(std::int64_t{1} << 53)));
  o.emplace("op", Value(std::string("join")));
  o.emplace("reason", Value(std::string("quote\"slash\\tab\tctl\x01")));
  o.emplace("seq", Value(-42.0));
  o.emplace("zero", Value(0.0));

  std::string streamed;
  obs::json::ObjectWriter w(streamed);
  w.field_bool("admit", true)
      .field_int("events", std::int64_t{1} << 53)
      .field_str("op", "join")
      .field_str("reason", "quote\"slash\\tab\tctl\x01")
      .field_int("seq", -42)
      .field_int("zero", 0);
  w.finish();
  EXPECT_EQ(streamed, Value(o).dump());

  std::string empty;
  obs::json::ObjectWriter e(empty);
  e.finish();
  EXPECT_EQ(empty, Value(Object{}).dump());
}

TEST(ObjectWriter, RendersEveryInt64Exactly) {
  std::string out;
  obs::json::ObjectWriter w(out);
  w.field_int("max", std::numeric_limits<std::int64_t>::max())
      .field_int("min", std::numeric_limits<std::int64_t>::min());
  w.finish();
  EXPECT_EQ(out, "{\"max\":9223372036854775807,\"min\":-9223372036854775808}");

  // Within ±2^53 the integer is what dump() writes for the same double.
  constexpr std::int64_t kExact = std::int64_t{1} << 53;
  for (const std::int64_t v : {kExact, -kExact, kExact - 1, std::int64_t{100000000000000000} / 100,
                               std::int64_t{-1}, std::int64_t{0}}) {
    obs::json::Object o;
    o.emplace("v", obs::json::Value(static_cast<double>(v)));
    std::string line;
    obs::json::ObjectWriter one(line);
    one.field_int("v", v);
    one.finish();
    EXPECT_EQ(line, obs::json::Value(o).dump()) << v;
  }
}

TEST(ObjectWriter, ShortValuesOfEveryByteMatchTheDumpedObjectForm) {
  // The writer tests string values eight bytes at a time for bytes that
  // need escaping; every byte value, at every length and offset the
  // word copy distinguishes, must come out as dump() writes it.
  Rng rng(11);
  for (int round = 0; round < 20000; ++round) {
    std::string v(static_cast<std::size_t>(rng.uniform_int(0, 24)), 'x');
    for (char& c : v) {
      // Mostly bytes next to the ones that need escaping.
      const std::int64_t pick = rng.uniform_int(0, 3);
      c = static_cast<char>(pick == 0 ? rng.uniform_int(0, 255)
                                      : pick == 1 ? rng.uniform_int(0x1e, 0x23)
                                                  : pick == 2 ? rng.uniform_int(0x5b, 0x5d) : 'a');
    }
    obs::json::Object o;
    o.emplace("s", obs::json::Value(v));
    std::string streamed;
    obs::json::ObjectWriter w(streamed);
    w.field_str("s", v);
    w.finish();
    ASSERT_EQ(streamed, obs::json::Value(o).dump()) << "round " << round;
  }
}

TEST(ObjectWriter, LongAndEscapedValuesMatchTheDumpedObjectForm) {
  // Values around and past the writer's fixed stage flush what is
  // staged and go straight to the string, as escaped values do.
  using obs::json::Object;
  using obs::json::Value;
  for (std::size_t n = 0; n <= 1100; n += n < 400 ? 50 : 1) {
    const std::string plain(n, 'x');
    std::string escaped(n, 'y');
    if (n > 0) escaped[n / 2] = '\n';
    Object o;
    o.emplace("a", Value(plain));
    o.emplace("b", Value(static_cast<double>(n)));
    o.emplace("c", Value(escaped));
    o.emplace("d", Value(true));
    o.emplace("e", Value(plain));
    std::string streamed = "kept\n";
    obs::json::ObjectWriter w(streamed);
    w.field_str("a", plain)
        .field_int("b", static_cast<std::int64_t>(n))
        .field_str("c", escaped)
        .field_bool("d", true)
        .field_str("e", plain);
    w.finish();
    ASSERT_EQ(streamed, "kept\n" + Value(o).dump()) << "n=" << n;
  }
}

}  // namespace
}  // namespace pfair::serve
