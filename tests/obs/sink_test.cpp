// Event bus fan-out and the individual sinks: JSONL round-trips,
// lag-timeline collection, histogram routing, and Perfetto JSON
// structure (parsed back with the obs JSON reader).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/bus.h"
#include "obs/histogram_sink.h"
#include "obs/json.h"
#include "obs/jsonl_sink.h"
#include "obs/lag_sampler.h"
#include "obs/perfetto_sink.h"
#include "obs/trace_analysis.h"
#include "sim/pfair_sim.h"

namespace pfair::obs {
namespace {

struct RecordingSink : Sink {
  std::vector<Event> seen;
  int flushes = 0;
  void on_event(const Event& e) override { seen.push_back(e); }
  void flush() override { ++flushes; }
};

TEST(EventBus, FansOutToEverySinkInRegistrationOrder) {
  EventBus bus;
  RecordingSink a;
  RecordingSink b;
  bus.add_sink(&a);
  bus.add_sink(&b);
  bus.emit(EventKind::kDispatch, 3, 1, 0, 2.0);
  bus.flush();
  ASSERT_EQ(a.seen.size(), 1u);
  ASSERT_EQ(b.seen.size(), 1u);
  EXPECT_EQ(a.seen[0].kind, EventKind::kDispatch);
  EXPECT_EQ(a.seen[0].time, 3);
  EXPECT_EQ(a.seen[0].task, 1u);
  EXPECT_EQ(a.seen[0].proc, 0u);
  EXPECT_EQ(a.seen[0].value, 2.0);
  EXPECT_EQ(a.flushes, 1);
  EXPECT_EQ(b.flushes, 1);
}

TEST(EventBus, FreeEmitHelperIsNullSafe) {
  emit(nullptr, EventKind::kSlotBegin, 0);  // must not crash
  EventBus bus;
  RecordingSink s;
  bus.add_sink(&s);
  emit(&bus, EventKind::kSlotBegin, 7);
  ASSERT_EQ(s.seen.size(), 1u);
  EXPECT_EQ(s.seen[0].time, 7);
  EXPECT_FALSE(EventBus().active());
  EXPECT_TRUE(bus.active());
}

TEST(EventKindNames, AreStableAndDistinct) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const char* name = to_string(static_cast<EventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
    for (std::size_t j = 0; j < k; ++j)
      EXPECT_NE(std::string(name), to_string(static_cast<EventKind>(j)));
  }
}

TEST(JsonlSink, EveryKindRoundTripsThroughParseEventLine) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    Event e;
    e.kind = static_cast<EventKind>(k);
    e.time = 42;
    e.task = 3;
    e.proc = 1;
    e.value = -1.5;
    std::ostringstream os;
    JsonlSink sink(os);
    sink.on_event(e);
    sink.flush();
    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    if (line.back() == '\n') line.pop_back();
    const std::optional<Event> back = parse_event_line(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->kind, e.kind) << line;
    EXPECT_EQ(back->time, e.time);
    EXPECT_EQ(back->task, e.task);
    EXPECT_EQ(back->proc, e.proc);
    EXPECT_EQ(back->value, e.value);
  }
}

TEST(JsonlSink, OmitsAbsentFieldsAndReadersRestoreSentinels) {
  std::ostringstream os;
  JsonlSink sink(os);
  Event e;
  e.kind = EventKind::kSlotBegin;
  e.time = 5;  // no task, no proc, zero value
  sink.on_event(e);
  std::string line = os.str();
  EXPECT_EQ(line.find("\"task\""), std::string::npos);
  EXPECT_EQ(line.find("\"proc\""), std::string::npos);
  EXPECT_EQ(line.find("\"value\""), std::string::npos);
  if (line.back() == '\n') line.pop_back();
  const std::optional<Event> back = parse_event_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->task, kNoTask);
  EXPECT_EQ(back->proc, kNoProc);
  EXPECT_EQ(back->value, 0.0);
}

TEST(LagSampler, CollectsPerTaskTimelinesInOrder) {
  LagSampler lags;
  lags.on_event({EventKind::kLagSample, 1, 0, kNoProc, 0.25});
  lags.on_event({EventKind::kLagSample, 2, 0, kNoProc, -0.5});
  lags.on_event({EventKind::kLagSample, 1, 2, kNoProc, 0.75});
  lags.on_event({EventKind::kDispatch, 1, 0, 0, 1.0});  // ignored
  ASSERT_EQ(lags.task_count(), 3u);
  ASSERT_EQ(lags.timeline(0).size(), 2u);
  EXPECT_EQ(lags.timeline(0)[0], (std::pair<Time, double>{1, 0.25}));
  EXPECT_EQ(lags.timeline(0)[1], (std::pair<Time, double>{2, -0.5}));
  EXPECT_TRUE(lags.timeline(1).empty());
  EXPECT_EQ(lags.max_abs_lag(0), 0.5);
  EXPECT_EQ(lags.max_abs_lag(99), 0.0);

  std::ostringstream csv;
  lags.write_csv(csv);
  EXPECT_EQ(csv.str(), "task,t,lag\n0,1,0.25\n0,2,-0.5\n2,1,0.75\n");
}

TEST(HistogramSink, RoutesEventsToTheRightDistribution) {
  HistogramSink h;
  h.on_event({EventKind::kJobComplete, 1, 0, 0, 4.0});
  h.on_event({EventKind::kJobComplete, 2, 0, 0, -1.0});  // untracked: skipped
  h.on_event({EventKind::kSchedInvoke, 1, kNoTask, kNoProc, 0.0});  // no distribution
  h.on_event({EventKind::kDispatch, 1, 0, 0, 2.0});
  h.on_event({EventKind::kDispatch, 2, 0, 0, -1.0});  // unknown latency
  EXPECT_EQ(h.response_time().total(), 1u);
  EXPECT_EQ(h.dispatch_latency().total(), 1u);
}

TEST(PerfettoSink, EmitsValidJsonThatRoundTrips) {
  std::ostringstream os;
  PerfettoSink sink(os);
  sink.on_event({EventKind::kDispatch, 0, 0, 0, 0.0});
  sink.on_event({EventKind::kDispatch, 1, 0, 0, 0.0});  // coalesces with slot 0
  sink.on_event({EventKind::kDispatch, 2, 1, 0, 0.0});  // closes task 0's slice
  sink.on_event({EventKind::kMigration, 3, 1, 1, 0.0});
  sink.on_event({EventKind::kDeadlineMiss, 4, 1, kNoProc, 0.0});
  sink.on_event({EventKind::kLagSample, 4, 1, kNoProc, 0.5});
  sink.flush();
  const std::string text = os.str();

  EXPECT_TRUE(validate_perfetto_json(text).empty()) << validate_perfetto_json(text);

  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const std::optional<json::Value> again = json::parse(doc->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*doc, *again);

  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_slice = false;
  bool saw_flow_start = false;
  bool saw_flow_end = false;
  bool saw_miss = false;
  for (const json::Value& e : events->as_array()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "X") saw_slice = true;
    if (ph == "s") saw_flow_start = true;
    if (ph == "f") saw_flow_end = true;
    if (ph == "i" && e.string_or("name", "").find("deadline miss") == 0) saw_miss = true;
  }
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_flow_start);
  EXPECT_TRUE(saw_flow_end);
  EXPECT_TRUE(saw_miss);
}

TEST(PerfettoSink, EscapesHostileTaskNames) {
  // Task names come from callers — pfaird forwards a client's `name` —
  // so a quote, a backslash or a control character in one must come out
  // escaped, on every event kind that carries the name.
  const std::string hostile = "cam\"era\\1\x01";
  PfairConfig cfg;
  cfg.processors = 1;
  cfg.lag_sample_every = 2;
  PfairSimulator sim(cfg);
  ASSERT_TRUE(sim.admit(engine::task_spec(1, 2, hostile)));
  std::ostringstream os;
  PerfettoSink sink(os);
  sink.set_task_names(sim.task_names());
  EventBus bus;
  bus.add_sink(&sink);
  sim.attach_observer(&bus);
  sim.run_until(6);
  sink.on_event({EventKind::kExecSlice, 6, 0, 0, 1.0});
  sink.on_event({EventKind::kDeadlineMiss, 7, 0, kNoProc, 0.0});
  bus.flush();
  const std::string text = os.str();

  EXPECT_TRUE(validate_perfetto_json(text).empty()) << validate_perfetto_json(text);
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  int quanta = 0;
  int jobs = 0;
  int lags = 0;
  int misses = 0;
  for (const json::Value& e : doc->find("traceEvents")->as_array()) {
    const std::string name = e.string_or("name", "");
    const std::string cat = e.string_or("cat", "");
    if (cat == "quantum" && name == hostile) ++quanta;
    if (cat == "job" && name == hostile) ++jobs;
    if (e.string_or("ph", "") == "C" && name == "lag " + hostile) ++lags;
    if (cat == "event" && name == "deadline miss " + hostile) ++misses;
  }
  EXPECT_EQ(quanta, 3);  // slots 0, 2 and 4
  EXPECT_EQ(jobs, 1);
  EXPECT_GT(lags, 0);
  EXPECT_EQ(misses, 1);
}

TEST(PerfettoSink, CoalescesContiguousQuantaIntoOneSlice) {
  std::ostringstream os;
  PerfettoSink sink(os);
  for (Time t = 0; t < 5; ++t) sink.on_event({EventKind::kDispatch, t, 0, 0, 0.0});
  sink.flush();
  const std::optional<json::Value> doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  int slices = 0;
  double dur = 0.0;
  for (const json::Value& e : doc->find("traceEvents")->as_array()) {
    if (e.string_or("ph", "") == "X") {
      ++slices;
      dur = e.number_or("dur", 0.0);
    }
  }
  EXPECT_EQ(slices, 1);
  EXPECT_EQ(dur, 5000.0);  // 5 slots at the default 1000 us per slot
}

TEST(PerfettoSink, FlushIsIdempotent) {
  std::ostringstream os;
  PerfettoSink sink(os);
  sink.on_event({EventKind::kDispatch, 0, 0, 0, 0.0});
  sink.flush();
  const std::string once = os.str();
  sink.flush();
  sink.on_event({EventKind::kDispatch, 1, 0, 0, 0.0});  // after close: dropped
  EXPECT_EQ(os.str(), once);
  EXPECT_TRUE(validate_perfetto_json(once).empty());
}

}  // namespace
}  // namespace pfair::obs
