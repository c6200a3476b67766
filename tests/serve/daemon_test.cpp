// The pfaird request loop: protocol errors, the determinism contract,
// registry publication (decision timings from obs::prof), and a
// storm-profile fuzz pass proving the gate never lets the simulator
// into a deadline miss.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "qa/gen.h"
#include "serve/request.h"

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
