// Cost per line of pfaird's request parser and decision-line writer.
//
// Parser: four line shapes, a flat join and a flat leave (every
// serve-pfair-churn line), a batch of 8 joins (every serve-gedf-exact
// line) and a join whose name holds escapes.  A fifth bench runs
// obs::json::parse on one JSONL event line, standing for the readers
// that build a tree (pfair_trace, pfair_perf).  Each iteration parses
// one line, so the time reported is the time per line.
//
// Writer: obs::json::ObjectWriter renders the join, leave and query
// decision lines with the members, order and value shapes the daemon
// writes, and a batch row writes 8 join lines joined by '\n' into one
// string, as a batch line's answer is.  The `total` weight arrives
// formatted, so the rows time the writer alone.  The `line` counter is
// the time per decision line.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/jsonl_sink.h"
#include "serve/request.h"
#include "util/rng.h"

namespace {

using namespace pfair;

/// A join drawn at run time, so that no line is a compile-time constant.
serve::Request join(Rng& rng) {
  serve::Request r;
  r.op = serve::RequestOp::kJoin;
  r.period = rng.uniform_int(2, 40);
  r.execution = rng.uniform_int(1, r.period);
  return r;
}

void parse_each_iteration(benchmark::State& state, const std::string& line) {
  for (auto _ : state) {
    std::optional<serve::Request> r = serve::parse_request(line);
    benchmark::DoNotOptimize(r);
    if (!r.has_value()) {
      state.SkipWithError("the line did not parse");
      break;
    }
  }
}

void BM_ParseRequest_FlatJoin(benchmark::State& state) {
  Rng rng(1);
  parse_each_iteration(state, serve::dump_request(join(rng)));
}
BENCHMARK(BM_ParseRequest_FlatJoin);

void BM_ParseRequest_FlatLeave(benchmark::State& state) {
  Rng rng(2);
  serve::Request r;
  r.op = serve::RequestOp::kLeave;
  r.task = static_cast<TaskId>(rng.uniform_int(0, 999));
  parse_each_iteration(state, serve::dump_request(r));
}
BENCHMARK(BM_ParseRequest_FlatLeave);

void BM_ParseRequest_BatchOf8Joins(benchmark::State& state) {
  Rng rng(3);
  serve::Request b;
  b.op = serve::RequestOp::kBatch;
  for (int i = 0; i < 8; ++i) b.batch.push_back(join(rng));
  parse_each_iteration(state, serve::dump_request(b));
}
BENCHMARK(BM_ParseRequest_BatchOf8Joins);

void BM_ParseRequest_EscapedName(benchmark::State& state) {
  Rng rng(4);
  serve::Request r = join(rng);
  r.name = "db \"replica\"\t" + std::to_string(rng.uniform_int(0, 99));
  parse_each_iteration(state, serve::dump_request(r));
}
BENCHMARK(BM_ParseRequest_EscapedName);

void BM_JsonParse_EventLine(benchmark::State& state) {
  Rng rng(5);
  std::ostringstream os;
  obs::JsonlSink sink(os);
  sink.on_event(obs::Event{obs::EventKind::kDispatch, rng.uniform_int(0, 99999),
                           static_cast<TaskId>(rng.uniform_int(0, 99)),
                           static_cast<ProcId>(rng.uniform_int(0, 15)), 1.0});
  sink.flush();
  std::string line = os.str();
  while (!line.empty() && line.back() == '\n') line.pop_back();
  for (auto _ : state) {
    std::optional<obs::json::Value> v = obs::json::parse(line);
    benchmark::DoNotOptimize(v);
    if (!v.has_value()) {
      state.SkipWithError("the line did not parse");
      break;
    }
  }
}
BENCHMARK(BM_JsonParse_EventLine);

/// One decision line's values, drawn at run time like the daemon's.
struct DecisionValues {
  bool admit = false;
  std::int64_t seq = 0, task = 0, tier = 0, time = 0, free_at = 0, tasks = 0;
  std::string_view reason = "eq2";  ///< a literal, as Decision::reason
  std::string total;  ///< "num/den", as the daemon formats the gate's sum
};

DecisionValues decision_values(Rng& rng) {
  DecisionValues v;
  v.admit = rng.uniform_int(0, 1) == 1;
  v.reason = v.admit ? "eq2" : "sim-reject";
  v.seq = rng.uniform_int(0, 99999);
  v.task = rng.uniform_int(0, 9999);
  v.tier = rng.uniform_int(0, 1);
  v.time = rng.uniform_int(0, 99999);
  v.free_at = v.time + rng.uniform_int(1, 40);
  v.tasks = rng.uniform_int(1, 200);
  v.total = std::to_string(rng.uniform_int(1, 9999999)) + "/" +
            std::to_string(rng.uniform_int(1, 9999999));
  return v;
}

void write_join(std::string& out, const DecisionValues& v) {
  obs::json::ObjectWriter w(out);
  w.field_bool("admit", v.admit)
      .field_bool("approx", false)
      .field_int("exact_events", 0)
      .field_str("op", serve::op_name(serve::RequestOp::kJoin))
      .field_str("reason", v.reason)
      .field_int("seq", v.seq)
      .field_int("task", v.admit ? v.task : -1)
      .field_int("tier", v.tier)
      .field_int("time", v.time)
      .field_str("total", v.total);
  w.finish();
}

void write_leave(std::string& out, const DecisionValues& v) {
  obs::json::ObjectWriter w(out);
  w.field_int("free_at", v.free_at)
      .field_bool("ok", true)
      .field_str("op", serve::op_name(serve::RequestOp::kLeave))
      .field_int("seq", v.seq)
      .field_int("task", v.task)
      .field_int("time", v.time);
  w.finish();
}

void write_query(std::string& out, const DecisionValues& v) {
  obs::json::ObjectWriter w(out);
  w.field_str("op", serve::op_name(serve::RequestOp::kQuery))
      .field_int("seq", v.seq)
      .field_int("tasks", v.tasks)
      .field_int("time", v.time)
      .field_str("total", v.total);
  w.finish();
}

void set_time_per_line(benchmark::State& state, int lines_per_iteration) {
  state.counters["line"] = benchmark::Counter(
      lines_per_iteration,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

/// Each iteration writes one line into a string reused across
/// iterations, as Daemon::serve reuses its answer buffer.
template <void (*Write)(std::string&, const DecisionValues&)>
void write_each_iteration(benchmark::State& state, std::uint64_t seed) {
  Rng rng(seed);
  const DecisionValues v = decision_values(rng);
  std::string out;
  for (auto _ : state) {
    out.clear();
    Write(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_time_per_line(state, 1);
}

void BM_WriteDecision_Join(benchmark::State& state) {
  write_each_iteration<write_join>(state, 6);
}
BENCHMARK(BM_WriteDecision_Join);

void BM_WriteDecision_Leave(benchmark::State& state) {
  write_each_iteration<write_leave>(state, 7);
}
BENCHMARK(BM_WriteDecision_Leave);

void BM_WriteDecision_Query(benchmark::State& state) {
  write_each_iteration<write_query>(state, 8);
}
BENCHMARK(BM_WriteDecision_Query);

void BM_WriteDecision_BatchOf8Joins(benchmark::State& state) {
  Rng rng(9);
  std::array<DecisionValues, 8> values;
  for (DecisionValues& v : values) v = decision_values(rng);
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += '\n';
      write_join(out, values[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_time_per_line(state, static_cast<int>(values.size()));
}
BENCHMARK(BM_WriteDecision_BatchOf8Joins);

}  // namespace
