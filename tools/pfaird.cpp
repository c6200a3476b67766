// pfaird: the tiered admission-control daemon.
//
// Reads streaming JSONL requests (serve/request.h: join / leave /
// reweight / query / advance) from a file, pipe or stdin while the
// served simulator's quantum loop keeps running, and answers every line
// with one JSONL decision: admit/reject, the tier that decided (0 =
// O(1) utilization & Lopez bounds, 1 = overhead-aware Eq. (3), 2 =
// exact test under a budget), and whether the answer fell back to an
// approximation when the Tier-2 budget ran out.
//
//   pfaird --scheduler=pfair --processors=4 < requests.jsonl > decisions.jsonl
//
// Flags:
//   --scheduler=KIND     pfair|partitioned|global-job|uniproc|wrr|cbs|bf|run
//                        (bf and run admit tasks only before they start)
//   --processors=N       capacity the gate admits against (default 1)
//   --algorithm=edf|rm   uniproc / global-job flavour (default edf)
//   --input=FILE|-       request stream (default stdin)
//   --output=FILE|-      decision stream (default stdout)
//   --advance=N          run the simulator N slots after each request
//   --exact-budget=N     Tier-2 event budget (0 disables Tier 2)
//   --overhead           Tier 1 uses Eq.-(3) inflation (paper defaults)
//   --cache-delay=US     D(T) per task when --overhead (default 33.3)
//   --memo-capacity=N    Tier-2 verdict memo entries (0 disables;
//                        default 65536)
//   --registry=FILE      write the MetricsRegistry snapshot (serve.*
//                        counters, serve.tier2_memo_hits, and the
//                        obs::prof timers: serve.decision p50/p95/p99
//                        per request line, serve.tier2 and serve.write
//                        inside it, the simulator's phases) to FILE
//   --gen-requests=N     generate a deterministic request stream to
//                        --output instead of serving
//   --batch-requests=N   with --gen-requests: wrap the stream into
//                        {"op":"batch"} lines of N sub-requests
//   --seed=N --load=PCT --max-period=N   generator parameters
//                        (2 <= max-period <= 9e15)
//
// One thread serves every line.  Self-profiling (obs/prof.h) is on while
// serving: it is the one place timings are kept.
//
// Determinism: decision lines carry the simulator clock, never
// wall-clock, so the same request stream and flags produce
// byte-identical decision logs on any host and any run (CI diffs two
// runs).  Wall-clock only feeds the stderr summary and the registry
// snapshot — observability side channels.
//
// Exit status: 0 on success, 1 on bad usage (an argument that is not
// one of the flags above, a numeric flag whose value does not parse in
// full, a negative --advance, --exact-budget, --cache-delay or
// --memo-capacity, or a configuration the generator or the daemon
// refuses, such as --processors=0) or unreadable/unwritable files.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "flags.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "serve/daemon.h"
#include "serve/request.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: pfaird --scheduler=KIND [--processors=N] [--algorithm=edf|rm]\n"
      "              KIND: pfair|partitioned|global-job|uniproc|wrr|cbs|bf|run\n"
      "              [--input=FILE|-] [--output=FILE|-] [--advance=N]\n"
      "              [--exact-budget=N] [--overhead] [--cache-delay=US]\n"
      "              [--memo-capacity=N] [--registry=FILE]\n"
      "       pfaird --gen-requests=N [--seed=N] [--load=PCT] [--max-period=N]\n"
      "              [--batch-requests=N] [--output=FILE|-]\n");
  return 1;
}

using pfair::tools::FlagValue;

constexpr pfair::tools::FlagSpec kFlags[] = {
    {"scheduler", FlagValue::kText},      {"processors", FlagValue::kInt},
    {"algorithm", FlagValue::kText},      {"input", FlagValue::kText},
    {"output", FlagValue::kText},         {"advance", FlagValue::kCount},
    {"exact-budget", FlagValue::kCount},  {"overhead", FlagValue::kSwitch},
    {"cache-delay", FlagValue::kAmount},  {"memo-capacity", FlagValue::kCount},
    {"registry", FlagValue::kText},       {"gen-requests", FlagValue::kInt},
    {"batch-requests", FlagValue::kInt},  {"seed", FlagValue::kInt},
    {"load", FlagValue::kInt},            {"max-period", FlagValue::kInt},
};

}  // namespace

int main(int argc, char** argv) {
  const pfair::tools::Flags flags("pfaird", argc, argv, 1, kFlags);
  if (!flags.ok()) return usage();
  const char* output_path = flags.text("output");
  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (output_path != nullptr && std::strcmp(output_path, "-") != 0) {
    out_file.open(output_path, std::ios::binary);
    if (!out_file) {
      std::fprintf(stderr, "pfaird: cannot write %s\n", output_path);
      return 1;
    }
    out = &out_file;
  }

  // Generator mode: emit a deterministic request stream and exit.
  if (const long long gen = flags.integer("gen-requests", 0); gen > 0) {
    pfair::serve::GenConfig gc;
    gc.count = static_cast<std::size_t>(gen);
    gc.seed = static_cast<std::uint64_t>(flags.integer("seed", 42));
    gc.load = static_cast<double>(flags.integer("load", 150)) / 100.0;
    gc.max_period = flags.integer("max-period", 40);
    std::string stream;
    try {
      stream = pfair::serve::generate_requests(gc);
    } catch (const std::invalid_argument& e) {
      return pfair::tools::bad_config("pfaird", e);
    }
    if (const long long bs = flags.integer("batch-requests", 0); bs > 1)
      stream = pfair::serve::batch_requests(stream, static_cast<std::size_t>(bs));
    *out << stream;
    out->flush();
    return 0;
  }

  const char* scheduler = flags.text("scheduler");
  if (scheduler == nullptr) return usage();
  const auto kind = pfair::engine::scheduler_kind_from_string(scheduler);
  if (!kind.has_value()) {
    std::fprintf(stderr, "pfaird: unknown scheduler '%s'; one of:", scheduler);
    for (const pfair::engine::SchedulerKind k : pfair::engine::all_scheduler_kinds())
      std::fprintf(stderr, " %s", pfair::engine::to_string(k));
    std::fprintf(stderr, "\n");
    return 1;
  }

  pfair::serve::DaemonConfig dc;
  dc.kind = *kind;
  dc.processors = static_cast<int>(flags.integer("processors", 1));
  if (const char* name = flags.text("algorithm")) {
    const auto algorithm = pfair::engine::uni_algorithm_from_string(name);
    if (!algorithm.has_value()) {
      std::fprintf(stderr, "pfaird: unknown algorithm '%s' (edf|rm)\n", name);
      return 1;
    }
    dc.algorithm = *algorithm;
  }
  dc.overhead_aware = flags.has("overhead");
  dc.cache_delay_us = flags.number("cache-delay", 33.3);
  dc.exact_budget = static_cast<std::uint64_t>(flags.integer("exact-budget", 1 << 20));
  dc.advance_per_request = static_cast<pfair::Time>(flags.integer("advance", 0));
  dc.memo_capacity = static_cast<std::size_t>(flags.integer("memo-capacity", 1 << 16));

  const char* input_path = flags.text("input");
  std::ifstream in_file;
  std::istream* in = &std::cin;
  if (input_path != nullptr && std::strcmp(input_path, "-") != 0) {
    in_file.open(input_path);
    if (!in_file) {
      std::fprintf(stderr, "pfaird: cannot read %s\n", input_path);
      return 1;
    }
    in = &in_file;
  }

  pfair::obs::prof::set_enabled(true);
  std::optional<pfair::serve::Daemon> served;
  try {
    served.emplace(dc);
  } catch (const std::invalid_argument& e) {
    return pfair::tools::bad_config("pfaird", e);
  }
  pfair::serve::Daemon& daemon = *served;
  const auto start = std::chrono::steady_clock::now();
  daemon.serve(*in, *out);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  daemon.publish_registry();
  if (const char* registry_path = flags.text("registry")) {
    std::ofstream rf(registry_path, std::ios::binary);
    if (!rf) {
      std::fprintf(stderr, "pfaird: cannot write %s\n", registry_path);
      return 1;
    }
    rf << pfair::obs::MetricsRegistry::global().snapshot_json();
  }

  const pfair::serve::DaemonStats& s = daemon.stats();
  const pfair::serve::AdmissionController& gate = daemon.controller();
  const pfair::obs::Histogram latency =
      pfair::obs::prof::collect_totals(pfair::obs::prof::Phase::kServeDecision).hist;
  // Rate over *requests* (batch sub-requests included), not input lines;
  // the decision percentiles are per input line.
  std::fprintf(stderr,
               "# pfaird %s m=%d: %llu requests in %.3fs (%.0f/sec): "
               "%llu admits, %llu rejects, %llu errors; tiers %llu/%llu/%llu "
               "(%llu approx); memo %llu hits / %llu misses; "
               "decision p50=%.0fns p95=%.0fns p99=%.0fns\n",
               pfair::engine::to_string(*kind), dc.processors,
               static_cast<unsigned long long>(s.requests), secs,
               secs > 0.0 ? static_cast<double>(s.requests) / secs : 0.0,
               static_cast<unsigned long long>(s.admits),
               static_cast<unsigned long long>(s.rejects),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.tier0),
               static_cast<unsigned long long>(s.tier1),
               static_cast<unsigned long long>(s.tier2),
               static_cast<unsigned long long>(s.approx),
               static_cast<unsigned long long>(gate.memo_hits()),
               static_cast<unsigned long long>(gate.memo_misses()),
               latency.p50(), latency.p95(), latency.p99());
  return 0;
}
