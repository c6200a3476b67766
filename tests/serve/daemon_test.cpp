// The pfaird request loop: protocol errors, the determinism contract,
// registry publication (decision timings from obs::prof), and a
// storm-profile fuzz pass proving the gate never lets the simulator
// into a deadline miss.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "qa/gen.h"
#include "serve/request.h"
#include "util/math.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

DaemonConfig pfair_config(int processors) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kPfair;
  c.processors = processors;
  return c;
}

std::string serve_string(Daemon& d, const std::string& requests) {
  std::istringstream in(requests);
  std::ostringstream out;
  d.serve(in, out);
  return out.str();
}

TEST(Daemon, EveryLineGetsExactlyOneAnswer) {
  Daemon d(pfair_config(2));
  const std::string out = serve_string(
      d, "{\"op\":\"join\",\"execution\":1,\"period\":4}\n"
         "{\"op\":\"query\"}\n"
         "{\"op\":\"advance\",\"to\":8}\n");
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_EQ(d.stats().requests, 3u);
  EXPECT_EQ(d.stats().admits, 1u);
  EXPECT_EQ(d.simulator().now(), 8);
}

TEST(Daemon, MalformedLinesAnswerWithStableErrorTokens) {
  Daemon d(pfair_config(1));
  EXPECT_NE(d.process_line("this is not json").find("\"bad-json\""),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"frobnicate\"}").find("\"bad-op\""),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"join\",\"execution\":1}").find("\"bad-field\""),
            std::string::npos);
  EXPECT_EQ(d.stats().errors, 3u);
  EXPECT_EQ(d.stats().requests, 3u);
}

TEST(Daemon, StaticKindsRefuseDynamicRequests) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kUniproc;
  Daemon d(c);
  ASSERT_NE(d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":4}")
                .find("\"admit\":true"),
            std::string::npos);
  EXPECT_NE(d.process_line("{\"op\":\"leave\",\"task\":0}").find("\"not-dynamic\""),
            std::string::npos);
  EXPECT_NE(d.process_line(
                 "{\"op\":\"reweight\",\"task\":0,\"execution\":1,\"period\":8}")
                .find("\"not-dynamic\""),
            std::string::npos);
  EXPECT_EQ(d.stats().errors, 2u);
}

TEST(Daemon, DecisionLogIsByteIdenticalAcrossRunsAndLatencyModes) {
  GenConfig gen;
  gen.count = 400;
  gen.seed = 9;
  const std::string requests = generate_requests(gen);

  // Latency is timed only while profiling is enabled; wall-clock must
  // never leak into the output either way.
  const auto decision_count = [] {
    return obs::prof::collect_totals(obs::prof::Phase::kServeDecision).count;
  };
  obs::prof::reset();
  Daemon a(pfair_config(2));
  const std::string out_a = serve_string(a, requests);
  EXPECT_EQ(decision_count(), 0u);

  obs::prof::set_enabled(true);
  Daemon b(pfair_config(2));
  const std::string out_b = serve_string(b, requests);
  EXPECT_EQ(decision_count(), b.stats().requests);  // one scope per line
  obs::prof::set_enabled(false);
  obs::prof::reset();

  Daemon c(pfair_config(2));
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(out_a, serve_string(c, requests));
  EXPECT_EQ(a.stats().admits, b.stats().admits);
}

TEST(Daemon, AdvancePerRequestKeepsTheQuantumLoopRunning) {
  DaemonConfig c = pfair_config(1);
  c.advance_per_request = 3;
  Daemon d(c);
  (void)d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":4}");
  (void)d.process_line("{\"op\":\"query\"}");
  EXPECT_EQ(d.simulator().now(), 6);
}

TEST(Daemon, ImmediateReweightKeepsSimulatorAndGateInStep) {
  // Task 0 has not run when the reweight arrives, so the switch-over is
  // immediate.  The simulator must then hold 1/4, like the gate, and
  // admit the 3/4 join on a single processor.
  Daemon d(pfair_config(1));
  ASSERT_NE(d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":2}")
                .find("\"admit\":true"),
            std::string::npos);
  ASSERT_NE(d.process_line("{\"op\":\"reweight\",\"task\":0,\"execution\":1,\"period\":4}")
                .find("\"admit\":true"),
            std::string::npos);
  (void)d.process_line("{\"op\":\"advance\",\"to\":3}");
  const std::string last = d.process_line("{\"op\":\"join\",\"execution\":3,\"period\":4}");
  EXPECT_NE(last.find("\"admit\":true"), std::string::npos) << last;
  EXPECT_EQ(last.find("sim-reject"), std::string::npos) << last;
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

TEST(Daemon, UpwardReweightReservesTheHeavierWeight) {
  // Task 0 has run, so its reweight to 3/4 switches over at t = 3.  The
  // heavier weight counts from the request on: a second (1,2) join
  // would over-commit one processor once the switch-over applies.
  Daemon d(pfair_config(1));
  (void)d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":2}");
  (void)d.process_line("{\"op\":\"advance\",\"to\":1}");
  const std::string reweight =
      d.process_line("{\"op\":\"reweight\",\"task\":0,\"execution\":3,\"period\":4}");
  EXPECT_NE(reweight.find("\"effective_at\":3"), std::string::npos) << reweight;
  EXPECT_NE(reweight.find("\"total\":\"3/4\""), std::string::npos) << reweight;
  const std::string join = d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":2}");
  EXPECT_NE(join.find("\"admit\":false"), std::string::npos) << join;
  EXPECT_NE(join.find("\"reason\":\"eq2\""), std::string::npos) << join;
  (void)d.process_line("{\"op\":\"advance\",\"to\":200}");
  const std::string query = d.process_line("{\"op\":\"query\"}");
  EXPECT_NE(query.find("\"total\":\"3/4\""), std::string::npos) << query;
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

TEST(Daemon, LeaveDuringAPendingReweightDeparts) {
  // The leave arrives while task 0 waits for its switch-over at t = 3.
  // It must depart then in the simulator too, not restart at 1/4 while
  // the gate drops it.
  Daemon d(pfair_config(1));
  (void)d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":2}");
  (void)d.process_line("{\"op\":\"advance\",\"to\":1}");
  const std::string reweight =
      d.process_line("{\"op\":\"reweight\",\"task\":0,\"execution\":1,\"period\":4}");
  ASSERT_NE(reweight.find("\"effective_at\":3"), std::string::npos) << reweight;
  const std::string leave = d.process_line("{\"op\":\"leave\",\"task\":0}");
  EXPECT_NE(leave.find("\"free_at\":3"), std::string::npos) << leave;
  (void)d.process_line("{\"op\":\"advance\",\"to\":20}");
  const std::string query = d.process_line("{\"op\":\"query\"}");
  EXPECT_NE(query.find("\"tasks\":0"), std::string::npos) << query;
  const std::string join = d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":1}");
  EXPECT_NE(join.find("\"admit\":true"), std::string::npos) << join;
  EXPECT_NE(join.find("\"task\":1"), std::string::npos) << join;
  (void)d.process_line("{\"op\":\"advance\",\"to\":40}");
  const std::string again = d.process_line("{\"op\":\"leave\",\"task\":0}");
  EXPECT_NE(again.find("\"error\":\"unknown-task\""), std::string::npos) << again;
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

/// The "total" field of a decision line is above `m` (false without one).
bool total_above(const std::string& line, int m) {
  const std::string_view key = "\"total\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* p = line.data() + at + key.size();
  const char* end = line.data() + line.size();
  std::int64_t num = 0;
  std::int64_t den = 1;
  p = std::from_chars(p, end, num).ptr;
  if (*p == '/') (void)std::from_chars(p + 1, end, den);
  return static_cast<Int128>(num) > static_cast<Int128>(m) * den;
}

TEST(Daemon, GateAndSimulatorAgreeOnGeneratedPd2Streams) {
  // Whatever the gate admits, the PD2 simulator it serves must accept:
  // no join may come back "sim-reject", and no total may pass M.  (A
  // reweight may: the simulator refuses a second one while one is
  // pending, which the gate does not track.)
  int failed_streams = 0;
  for (const int m : {1, 2, 4}) {
    for (const std::int64_t max_period : {16, 40}) {
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        GenConfig gen;
        gen.count = 3000;
        gen.seed = seed;
        gen.max_period = max_period;
        Daemon d(pfair_config(m));
        std::istringstream in(generate_requests(gen));
        std::string line;
        int sim_rejected_joins = 0;
        int totals_above_m = 0;
        while (std::getline(in, line)) {
          const std::string reply = d.process_line(line);
          if (reply.find("\"op\":\"join\"") != std::string::npos &&
              reply.find("\"sim-reject\"") != std::string::npos)
            ++sim_rejected_joins;
          if (total_above(reply, m)) ++totals_above_m;
        }
        EXPECT_EQ(sim_rejected_joins, 0)
            << "m=" << m << " max_period=" << max_period << " seed=" << seed;
        EXPECT_EQ(totals_above_m, 0)
            << "m=" << m << " max_period=" << max_period << " seed=" << seed;
        EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u)
            << "m=" << m << " max_period=" << max_period << " seed=" << seed;
        if (sim_rejected_joins + totals_above_m > 0) ++failed_streams;
      }
    }
  }
  EXPECT_EQ(failed_streams, 0) << "of 96 streams";
}

TEST(Daemon, ExactGlobalEdfAdmitsHoldInArrivalOrder) {
  // Tier 2 judges the set in canonical (period, execution) order, while
  // the served simulator holds the tasks in arrival order.  Broken by
  // arrival order, deadline ties make this set miss twice by t = 480
  // although every join was admitted exactly.
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kGlobalJob;
  c.processors = 4;
  Daemon d(c);
  const std::pair<int, int> joins[] = {{11, 60}, {1, 5},  {15, 240}, {5, 20}, {1, 5},
                                       {3, 16},  {1, 6},  {11, 120}, {2, 16}, {7, 24},
                                       {19, 80}, {34, 40}, {4, 24},  {3, 24}};
  for (const auto& [e, p] : joins) {
    const std::string reply = d.process_line("{\"op\":\"join\",\"execution\":" +
                                             std::to_string(e) + ",\"period\":" +
                                             std::to_string(p) + "}");
    ASSERT_NE(reply.find("\"admit\":true"), std::string::npos) << reply;
    ASSERT_NE(reply.find("\"approx\":false"), std::string::npos) << reply;
  }
  EXPECT_EQ(d.stats().tier2, 3u);
  d.simulator().run_until(480);
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

DaemonConfig partitioned_config(int processors, UniAlgorithm algorithm) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kPartitioned;
  c.processors = processors;
  c.algorithm = algorithm;
  return c;
}

std::string join_line(std::int64_t execution, std::int64_t period) {
  return "{\"op\":\"join\",\"execution\":" + std::to_string(execution) +
         ",\"period\":" + std::to_string(period) + "}";
}

TEST(Daemon, PartitionedRmRefusesWhatRmCannotSchedule) {
  // (2, 5) and (4, 7) total 0.97, under the Lopez bound, but behind
  // (2, 5) the RM response time of (4, 7) is 8 > 7: one processor cannot
  // run both under RM.  The second join must be refused exactly, and
  // what was admitted must run miss-free.
  Daemon d(partitioned_config(1, UniAlgorithm::kRM));
  const std::string first = d.process_line(join_line(2, 5));
  EXPECT_NE(first.find("\"admit\":true"), std::string::npos) << first;
  const std::string second = d.process_line(join_line(4, 7));
  EXPECT_NE(second.find("\"admit\":false"), std::string::npos) << second;
  EXPECT_NE(second.find("\"approx\":false"), std::string::npos) << second;
  EXPECT_EQ(second.find("\"sim-reject\""), std::string::npos) << second;
  d.simulator().run_until(70);
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

TEST(Daemon, PartitionedTierOnePacksInTheSimulatorsOrder) {
  // First fit in decreasing period fits these six joins on four
  // processors; first fit in arrival order, as the simulator packs, has
  // no room for the sixth.  Tier 1 must answer as the simulator does.
  Daemon d(partitioned_config(4, UniAlgorithm::kEDF));
  const std::pair<int, int> joins[] = {{4, 6}, {22, 26}, {35, 38}, {1, 8}, {13, 17}};
  for (const auto& [e, p] : joins) {
    const std::string reply = d.process_line(join_line(e, p));
    ASSERT_NE(reply.find("\"admit\":true"), std::string::npos) << reply;
  }
  const std::string sixth = d.process_line(join_line(1, 4));
  EXPECT_NE(sixth.find("\"admit\":false"), std::string::npos) << sixth;
  EXPECT_NE(sixth.find("\"tier\":1"), std::string::npos) << sixth;
  EXPECT_NE(sixth.find("\"ff-unpacked\""), std::string::npos) << sixth;
}

TEST(Daemon, PartitionedGateAndSimulatorAgreeOnJoinStreams) {
  // Join-only streams at t = 0, where the static partitioned kind
  // admits: every join the gate admits, the simulator must place, under
  // EDF and RM alike.  Periods of at most 40 keep ΣU's Rational inside
  // int64, so the only way to disagree is to pack differently.
  for (const UniAlgorithm algorithm : {UniAlgorithm::kEDF, UniAlgorithm::kRM}) {
    int tier1_admits = 0;
    int sim_rejects = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Daemon d(partitioned_config(4, algorithm));
      Rng rng(seed);
      for (int k = 0; k < 30; ++k) {
        const std::int64_t p = rng.uniform_int(2, 40);
        const std::string reply = d.process_line(join_line(rng.uniform_int(1, p), p));
        if (reply.find("\"sim-reject\"") != std::string::npos) {
          ++sim_rejects;
        } else if (reply.find("\"admit\":true") != std::string::npos &&
                   reply.find("\"tier\":1") != std::string::npos) {
          ++tier1_admits;
        }
      }
      d.simulator().run_until(840);
      EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u) << "seed " << seed;
    }
    EXPECT_EQ(sim_rejects, 0) << "algorithm " << static_cast<int>(algorithm);
    EXPECT_GT(tier1_admits, 100) << "algorithm " << static_cast<int>(algorithm);
  }
}

DaemonConfig global_job_config(UniAlgorithm algorithm) {
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kGlobalJob;
  c.processors = 4;
  c.algorithm = algorithm;
  c.advance_per_request = 1;
  return c;
}

/// The stream CI serves to reach Tier 2: periods of at most 12 keep
/// every hyperperiod within the exact test's budget.
std::string global_job_stream() {
  GenConfig gen;
  gen.count = 20000;
  gen.seed = 11;
  gen.load = 1.5;
  gen.max_period = 12;
  return generate_requests(gen);
}

/// FNV-1a over each decision line's seq, admit, task, tier, reason,
/// approx and exact_events, as the line spells them ("-" for a field the
/// line lacks).  `total` is left out: it is the gate's utilization sum,
/// whose form may change without changing a decision.
std::uint64_t decision_digest(const std::string& log) {
  std::uint64_t h = 14695981039346656037u;
  const auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211u;
    }
  };
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<obs::json::Value> v = obs::json::parse(line);
    if (!v.has_value()) {
      ADD_FAILURE() << "unparsable decision line: " << line;
      return 0;
    }
    for (const char* key : {"seq", "admit", "task", "tier", "reason", "approx", "exact_events"}) {
      const obs::json::Value* field = v->find(key);
      mix(field == nullptr ? "-" : field->dump());
      mix(",");
    }
    mix("\n");
  }
  return h;
}

TEST(Daemon, GlobalJobTier2AnswersMatchTheRecordedDigest) {
  // Recorded from the heap-based exact test the winner trees replaced.
  // Every Tier-2 line echoes the test's verdict and event count, so a
  // change in either changes the digest.  With the memo off, every
  // Tier-2 line is computed cold and must read the same.
  struct Recorded {
    UniAlgorithm algorithm;
    std::uint64_t tier2_lines;
    std::uint64_t digest;
  };
  const Recorded recorded[] = {
      {UniAlgorithm::kEDF, 1008, 14838366646434357355u},
      {UniAlgorithm::kRM, 10311, 578369630687757381u},
  };
  const std::string requests = global_job_stream();
  for (const Recorded& r : recorded) {
    for (const std::size_t memo_capacity : {std::size_t{1} << 16, std::size_t{0}}) {
      SCOPED_TRACE(testing::Message() << "algorithm " << static_cast<int>(r.algorithm)
                                      << ", memo capacity " << memo_capacity);
      DaemonConfig c = global_job_config(r.algorithm);
      c.memo_capacity = memo_capacity;
      Daemon d(c);
      const std::string log = serve_string(d, requests);
      EXPECT_EQ(d.stats().tier2, r.tier2_lines);
      EXPECT_EQ(d.stats().approx, 0u);
      EXPECT_EQ(decision_digest(log), r.digest);
    }
  }
}

TEST(Daemon, RosterKindsRunOnTheConfiguredProcessors) {
  // On one processor RUN refuses the third (1,2) join at ΣU = 3/2 and BF
  // misses: the daemon's processor count must reach both.
  for (const engine::SchedulerKind kind :
       {engine::SchedulerKind::kBf, engine::SchedulerKind::kRun}) {
    DaemonConfig c;
    c.kind = kind;
    c.processors = 4;
    Daemon d(c);
    for (int i = 0; i < 3; ++i) {
      const std::string reply =
          d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":2}");
      EXPECT_NE(reply.find("\"admit\":true"), std::string::npos)
          << engine::to_string(kind) << ": " << reply;
    }
    (void)d.process_line("{\"op\":\"advance\",\"to\":20}");
    const engine::Metrics& m = d.simulator().metrics();
    EXPECT_EQ(m.tasks_admitted, 3u) << engine::to_string(kind);
    EXPECT_EQ(m.deadline_misses, 0u) << engine::to_string(kind);
    EXPECT_EQ(m.busy_quanta, 30u) << engine::to_string(kind);
    EXPECT_EQ(m.busy_quanta + m.idle_quanta, 4u * m.slots) << engine::to_string(kind);
  }
}

TEST(Daemon, RunAdvanceBeyondTheTickRangeStopsAtTheLastSlotThatFits) {
  // One slot is 10^9 ticks here, so slot * ticks wraps past slot
  // 9223372036; a wrapped product would run nothing and answer "now":0.
  DaemonConfig c;
  c.kind = engine::SchedulerKind::kRun;
  Daemon d(c);
  ASSERT_NE(d.process_line("{\"op\":\"join\",\"execution\":1,\"period\":1000000000}")
                .find("\"admit\":true"),
            std::string::npos);
  const std::string reply = d.process_line("{\"op\":\"advance\",\"to\":10000000000}");
  EXPECT_NE(reply.find("\"now\":9223372036"), std::string::npos) << reply;
  EXPECT_EQ(d.simulator().now(), 9223372036);
  EXPECT_EQ(d.simulator().metrics().jobs_completed, 10u);
  EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u);
}

TEST(Daemon, HugePeriodLeavesFreeCapacityLikeTheirSmallTwins) {
  // (4e15, 9e15) is light and (5e15, 9e15) heavy; by the advance each
  // has run past subtask 1024, where i*p passes 2^63.  Their leave rules
  // must free the weight when those of (4, 9) and (5, 9) do, not early.
  struct Twin {
    const char* execution;
    const char* period;
    int advance;
    const char* free_at;
  };
  const Twin twins[] = {{"4000000000000000", "9000000000000000", 2400, "\"free_at\":2402"},
                        {"4", "9", 2400, "\"free_at\":2402"},
                        {"5000000000000000", "9000000000000000", 3000, "\"free_at\":3003"},
                        {"5", "9", 3000, "\"free_at\":3003"}};
  for (const Twin& tw : twins) {
    Daemon d(pfair_config(1));
    ASSERT_NE(d.process_line(std::string("{\"op\":\"join\",\"execution\":") + tw.execution +
                             ",\"period\":" + tw.period + "}")
                  .find("\"admit\":true"),
              std::string::npos);
    (void)d.process_line("{\"op\":\"advance\",\"to\":" + std::to_string(tw.advance) + "}");
    const std::string reply = d.process_line("{\"op\":\"leave\",\"task\":0}");
    EXPECT_NE(reply.find(tw.free_at), std::string::npos)
        << "(" << tw.execution << ", " << tw.period << "): " << reply;
  }
}

TEST(Daemon, PublishRegistryMirrorsTheStats) {
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
  obs::prof::set_enabled(true);
  Daemon d(pfair_config(2));
  GenConfig gen;
  gen.count = 120;
  gen.seed = 4;
  (void)serve_string(d, generate_requests(gen));
  obs::prof::set_enabled(false);
  d.publish_registry();
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter("serve.requests").value(), d.stats().requests);
  EXPECT_EQ(reg.counter("serve.admits").value(), d.stats().admits);
  EXPECT_EQ(reg.counter("serve.rejects").value(), d.stats().rejects);
  EXPECT_EQ(reg.counter("serve.tier0").value(), d.stats().tier0);
  // The decision timer comes from obs::prof, the one timing store: one
  // sample per served line, in the same snapshot as the counters.
  const obs::json::Value snap = reg.snapshot();
  const obs::json::Value* timers = snap.find("timers");
  ASSERT_NE(timers, nullptr);
  const obs::json::Value* decision = timers->find("serve.decision");
  ASSERT_NE(decision, nullptr);
  EXPECT_EQ(decision->number_or("count", -1.0), static_cast<double>(gen.count));
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
}

TEST(Daemon, PublishRegistryTimesEveryTier2Answer) {
  // serve.tier2 times each Tier-2 answer, memo hit or miss, inside its
  // line's serve.decision scope, so the registry shows the exact test's
  // share of the decision time.
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
  obs::prof::set_enabled(true);
  Daemon d(global_job_config(UniAlgorithm::kEDF));
  (void)serve_string(d, global_job_stream());
  obs::prof::set_enabled(false);
  d.publish_registry();
  const obs::json::Value snap = obs::MetricsRegistry::global().snapshot();
  const obs::json::Value* timers = snap.find("timers");
  ASSERT_NE(timers, nullptr);
  const obs::json::Value* decision = timers->find("serve.decision");
  const obs::json::Value* tier2 = timers->find("serve.tier2");
  ASSERT_NE(decision, nullptr);
  ASSERT_NE(tier2, nullptr);
  const std::uint64_t answers = d.controller().memo_hits() + d.controller().memo_misses();
  EXPECT_GT(d.controller().memo_misses(), 0u);
  EXPECT_EQ(tier2->number_or("count", -1.0), static_cast<double>(answers));
  EXPECT_EQ(answers, d.stats().tier2);  // no budget fallbacks on this stream
  EXPECT_GT(tier2->number_or("total_ns", -1.0), 0.0);
  EXPECT_LE(tier2->number_or("total_ns", -1.0), decision->number_or("total_ns", -1.0));
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
}

TEST(Daemon, PublishRegistryTimesEveryLineWritten) {
  // serve.write times the rendering of each answer inside its line's
  // serve.decision scope: one sample per answered sub-request, batch
  // elements and error lines included.
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
  obs::prof::set_enabled(true);
  Daemon d(pfair_config(2));
  GenConfig gen;
  gen.count = 200;
  gen.seed = 4;
  const std::string requests = batch_requests(generate_requests(gen), 8) +
                               "this is not json\n{\"op\":\"frobnicate\"}\n";
  const std::string log = serve_string(d, requests);
  obs::prof::set_enabled(false);
  d.publish_registry();
  const obs::json::Value snap = obs::MetricsRegistry::global().snapshot();
  const obs::json::Value* timers = snap.find("timers");
  ASSERT_NE(timers, nullptr);
  const obs::json::Value* decision = timers->find("serve.decision");
  const obs::json::Value* write = timers->find("serve.write");
  ASSERT_NE(decision, nullptr);
  ASSERT_NE(write, nullptr);
  const auto answers = static_cast<std::uint64_t>(std::count(log.begin(), log.end(), '\n'));
  EXPECT_EQ(answers, gen.count + 2);
  EXPECT_EQ(d.stats().requests, answers);
  EXPECT_EQ(write->number_or("count", -1.0), static_cast<double>(answers));
  EXPECT_LT(decision->number_or("count", -1.0), static_cast<double>(answers));  // batch lines
  EXPECT_GT(write->number_or("total_ns", -1.0), 0.0);
  EXPECT_LE(write->number_or("total_ns", -1.0), decision->number_or("total_ns", -1.0));
  obs::MetricsRegistry::global().reset_values();
  obs::prof::reset();
}

TEST(Daemon, DecisionIntegersPastTwoToThe53AreExact) {
  // free_at = 1.8e16 + 1 is past 2^53, where a double would round it;
  // the line spells the integer the simulator holds, in every build.
  DaemonConfig c = pfair_config(1);
  c.advance_per_request = 1;
  Daemon d(c);
  EXPECT_EQ(serve_string(d,
                         "{\"op\":\"advance\",\"to\":9000000000000000}\n"
                         "{\"op\":\"join\",\"execution\":1,\"period\":9000000000000000}\n"
                         "{\"op\":\"query\"}\n"
                         "{\"op\":\"leave\",\"task\":0}\n"),
            "{\"now\":9000000000000000,\"op\":\"advance\",\"seq\":0,\"time\":0}\n"
            "{\"admit\":true,\"approx\":false,\"exact_events\":0,\"op\":\"join\","
            "\"reason\":\"eq2\",\"seq\":1,\"task\":0,\"tier\":0,\"time\":9000000000000001,"
            "\"total\":\"1/9000000000000000\"}\n"
            "{\"op\":\"query\",\"seq\":2,\"tasks\":1,\"time\":9000000000000002,"
            "\"total\":\"1/9000000000000000\"}\n"
            "{\"free_at\":18000000000000001,\"ok\":true,\"op\":\"leave\",\"seq\":3,"
            "\"task\":0,\"time\":9000000000000003}\n");
}

/// Converts a qa storm case into the daemon's request stream: the base
/// tasks join at t=0 (validate() guarantees they are Pfair-feasible, so
/// the Eq.-(2) gate admits them all and their daemon ids are 0..n-1 —
/// which is exactly what the case's leave script indexes), then the
/// join/leave storm replays in time order via advance requests.
std::string storm_requests(const qa::FuzzCase& c) {
  std::string out;
  for (const Task& t : c.tasks.tasks()) {
    Request r;
    r.op = RequestOp::kJoin;
    r.execution = t.execution;
    r.period = t.period;
    out += dump_request(r) + "\n";
  }
  std::vector<std::pair<Time, Request>> timed;
  for (const qa::JoinEvent& j : c.joins) {
    Request r;
    r.op = RequestOp::kJoin;
    r.execution = j.task.execution;
    r.period = j.task.period;
    timed.emplace_back(j.at, r);
  }
  for (const qa::LeaveEvent& l : c.leaves) {
    Request r;
    r.op = RequestOp::kLeave;
    r.task = l.task;
    timed.emplace_back(l.at, r);
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Time clock = 0;
  for (const auto& [at, r] : timed) {
    if (at > clock) {
      Request adv;
      adv.op = RequestOp::kAdvance;
      adv.to = at;
      out += dump_request(adv) + "\n";
      clock = at;
    }
    out += dump_request(r) + "\n";
  }
  return out;
}

TEST(Daemon, StormFuzzCasesStayMissFreeThroughTheGate) {
  // The acceptance property: whatever the admission gate lets through,
  // the Pfair simulator must schedule without a deadline miss.  Rejected
  // joins and unknown-task leaves are fine; misses are not.
  qa::GenConfig gen;
  gen.only_profile = qa::Profile::kStorm;
  gen.max_processors = 3;
  const qa::TaskSetGen source(gen, 77);
  for (std::uint64_t index = 0; index < 25; ++index) {
    const qa::FuzzCase c = source.make_case(index);
    ASSERT_EQ(qa::validate(c), "") << "case " << index;
    Daemon d(pfair_config(c.processors));
    std::istringstream in(storm_requests(c));
    std::ostringstream out;
    d.serve(in, out);
    // Every base task must have been admitted for the leave script's
    // indices to mean what the case meant.
    ASSERT_GE(d.stats().admits, c.tasks.size()) << "case " << index;
    d.simulator().run_until(c.horizon);
    EXPECT_EQ(d.simulator().metrics().deadline_misses, 0u)
        << "case " << index << " (seed 77, profile storm)";
  }
}

}  // namespace
}  // namespace pfair::serve
