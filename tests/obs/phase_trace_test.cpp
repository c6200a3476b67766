// Profiling determinism + Perfetto phase tracks:
//   * the JSONL event stream of a seeded run, and pfaird's with its
//     decision log, is byte-identical with profiling attached vs
//     detached;
//   * PerfettoSink output with profiling + span recording on passes
//     validate_perfetto_json and actually contains the phase track,
//     pfaird's serve.decision slices included.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/bus.h"
#include "obs/jsonl_sink.h"
#include "obs/perfetto_sink.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "obs/trace_analysis.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "sim/pfair_sim.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace pfair {
namespace {

struct ProfRun {
  std::string jsonl;     ///< JSONL event stream
  std::string perfetto;  ///< Perfetto/Chrome JSON (empty unless requested)
};

/// One seeded run: same workload every call, so any byte difference in
/// the captured streams is caused by the configuration under test.
ProfRun run_seeded(bool prof, bool spans, bool perfetto_out) {
  obs::prof::set_enabled(prof);
  obs::prof::set_span_recording(spans);
  obs::prof::reset();

  PfairConfig cfg;
  cfg.processors = 4;
  cfg.algorithm = Algorithm::kPD2;
  PfairSimulator sim(cfg);

  ProfRun out;
  std::ostringstream jsonl_os;
  std::ostringstream perfetto_os;
  obs::JsonlSink jsonl(jsonl_os);
  obs::EventBus bus;
  bus.add_sink(&jsonl);
  std::optional<obs::PerfettoSink> perfetto;
  if (perfetto_out) {
    perfetto.emplace(perfetto_os);
    bus.add_sink(&*perfetto);
  }
  sim.attach_observer(&bus);

  Rng rng(42);
  const std::vector<UniTask> tasks = generate_uni_tasks(rng, 12, 0.7 * 4.0, 64);
  for (const UniTask& t : tasks) (void)sim.admit(engine::task_spec(t.execution, t.period));
  sim.run_until(300);
  bus.flush();

  out.jsonl = jsonl_os.str();
  out.perfetto = perfetto_os.str();
  obs::prof::set_enabled(false);
  obs::prof::set_span_recording(false);
  obs::prof::reset();
  return out;
}

TEST(PhaseTrace, JsonlStreamByteIdenticalProfOnVsOff) {
  const ProfRun off = run_seeded(/*prof=*/false, false, false);
  const ProfRun on = run_seeded(/*prof=*/true, /*spans=*/true, false);
  ASSERT_FALSE(off.jsonl.empty());
  EXPECT_EQ(off.jsonl, on.jsonl);
}

// pfaird's admission event stream and decision log carry the simulator
// clock, never wall-clock, so turning profiling on must not change a
// byte of either.
TEST(PhaseTrace, JsonlStreamByteIdenticalShardedVsUnsharded) {
  serve::GenConfig gen;
  gen.count = 400;
  gen.seed = 11;
  const std::string requests = serve::generate_requests(gen);
  const auto run = [&requests](bool prof) {
    obs::prof::set_enabled(prof);
    obs::prof::reset();
    serve::DaemonConfig cfg;
    cfg.processors = 4;
    cfg.advance_per_request = 1;
    serve::Daemon daemon(cfg);
    std::ostringstream jsonl_os;
    obs::JsonlSink jsonl(jsonl_os);
    obs::EventBus bus;
    bus.add_sink(&jsonl);
    daemon.attach_observer(&bus);
    std::istringstream in(requests);
    std::ostringstream decisions;
    (void)daemon.serve(in, decisions);
    bus.flush();
    const std::uint64_t timed =
        obs::prof::collect_totals(obs::prof::Phase::kServeDecision).count;
    obs::prof::set_enabled(false);
    obs::prof::reset();
    return std::make_tuple(jsonl_os.str(), decisions.str(), timed);
  };
  const auto [off_events, off_log, off_timed] = run(false);
  const auto [on_events, on_log, on_timed] = run(true);
  ASSERT_FALSE(off_events.empty());
  EXPECT_EQ(off_timed, 0u);
  EXPECT_EQ(on_timed, gen.count);  // profiling really was on
  EXPECT_EQ(off_events, on_events);
  EXPECT_EQ(off_log, on_log);
}

TEST(PhaseTrace, PerfettoWithPhaseTracksValidates) {
  const ProfRun r = run_seeded(/*prof=*/true, /*spans=*/true, /*perfetto_out=*/true);
  ASSERT_FALSE(r.perfetto.empty());
  EXPECT_EQ(obs::validate_perfetto_json(r.perfetto), "");
  // The prof process and every slot-kernel phase must be present.
  EXPECT_NE(r.perfetto.find("\"prof\""), std::string::npos);
  for (const char* phase : {"legacy.miss_sweep", "legacy.select", "sim.release", "sim.assign"})
    EXPECT_NE(r.perfetto.find(phase), std::string::npos) << phase;
}

// pfaird's per-line decision timer is a prof phase like the kernel's, so
// one Perfetto trace carries the served schedule, its kernel phases and
// a serve.decision slice per request line.
TEST(PhaseTrace, PerfettoCarriesServeDecisionSlices) {
  serve::GenConfig gen;
  gen.count = 50;
  gen.seed = 3;
  obs::prof::set_enabled(true);
  obs::prof::set_span_recording(true);
  obs::prof::reset();
  serve::DaemonConfig cfg;
  cfg.processors = 2;
  cfg.advance_per_request = 1;
  serve::Daemon daemon(cfg);
  std::ostringstream os;
  obs::PerfettoSink perfetto(os);
  obs::EventBus bus;
  bus.add_sink(&perfetto);
  daemon.attach_observer(&bus);
  daemon.simulator().attach_observer(&bus);
  std::istringstream in(serve::generate_requests(gen));
  std::ostringstream decisions;
  (void)daemon.serve(in, decisions);
  bus.flush();
  const std::uint64_t slices =
      obs::prof::collect_totals(obs::prof::Phase::kServeDecision).count;
  obs::prof::set_enabled(false);
  obs::prof::set_span_recording(false);
  obs::prof::reset();

  const std::string trace = os.str();
  EXPECT_EQ(obs::validate_perfetto_json(trace), "");
  EXPECT_EQ(slices, gen.count);
  std::size_t found = 0;
  for (std::size_t at = trace.find("\"serve.decision\""); at != std::string::npos;
       at = trace.find("\"serve.decision\"", at + 1))
    ++found;
  EXPECT_EQ(found, gen.count);
  EXPECT_NE(trace.find("legacy.select"), std::string::npos);
}

TEST(PhaseTrace, PerfettoOmitsProfTracksWhenDetached) {
  const ProfRun r = run_seeded(/*prof=*/false, false, /*perfetto_out=*/true);
  ASSERT_FALSE(r.perfetto.empty());
  EXPECT_EQ(obs::validate_perfetto_json(r.perfetto), "");
  EXPECT_EQ(r.perfetto.find("legacy.select"), std::string::npos);
}

}  // namespace
}  // namespace pfair
