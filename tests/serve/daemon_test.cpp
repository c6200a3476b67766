// The pfaird request loop: protocol errors, the determinism contract,
// registry publication, and a storm-profile fuzz pass proving the gate
// never lets the simulator into a deadline miss.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
  gen.processors = 2;
  const std::string requests = generate_requests(gen);

  Daemon a(pfair_config(2));
  Daemon b(pfair_config(2));
  DaemonConfig no_latency = pfair_config(2);
  no_latency.measure_latency = false;  // wall-clock must never leak into output
  Daemon c(no_latency);

  const std::string out_a = serve_string(a, requests);
  EXPECT_EQ(out_a, serve_string(b, requests));
  EXPECT_EQ(out_a, serve_string(c, requests));
  EXPECT_EQ(c.stats().latency_count, 0u);
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

TEST(Daemon, PublishRegistryMirrorsTheStats) {
  obs::MetricsRegistry::global().reset_values();
  Daemon d(pfair_config(2));
  GenConfig gen;
  gen.count = 120;
  gen.seed = 4;
  gen.processors = 2;
  (void)serve_string(d, generate_requests(gen));
  d.publish_registry();
  auto& reg = obs::MetricsRegistry::global();
  EXPECT_EQ(reg.counter("serve.requests").value(), d.stats().requests);
  EXPECT_EQ(reg.counter("serve.admits").value(), d.stats().admits);
  EXPECT_EQ(reg.counter("serve.rejects").value(), d.stats().rejects);
  EXPECT_EQ(reg.counter("serve.tier0").value(), d.stats().tier0);
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("\"serve.decision\""), std::string::npos);
  obs::MetricsRegistry::global().reset_values();
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
