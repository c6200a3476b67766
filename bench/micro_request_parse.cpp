// Cost per line of pfaird's request parser on four line shapes: a flat
// join and a flat leave (every serve-pfair-churn line), a batch of 8
// joins (every serve-gedf-exact line) and a join whose name holds
// escapes.  A fifth bench runs obs::json::parse on one JSONL event
// line, standing for the readers that build a tree (pfair_trace,
// pfair_perf).  Each iteration parses one line, so the time reported
// is the time per line.
#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>
#include <string>

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

}  // namespace
