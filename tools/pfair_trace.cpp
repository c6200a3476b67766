// pfair_trace: offline analysis of obs JSONL event traces.
//
// Answers the first questions of a scheduling investigation from a
// recorded trace (obs::JsonlSink output) without re-running anything:
//
//   pfair_trace summary    trace.jsonl              event totals
//   pfair_trace preemptors trace.jsonl [--top=N]    preemption league table
//   pfair_trace migrations trace.jsonl              from/to processor matrix
//   pfair_trace first-miss trace.jsonl [--window=N] events around the first miss
//   pfair_trace validate   trace.json               Perfetto JSON schema check
//   pfair_trace report     trace.jsonl [--registry=FILE]
//                                                   all of the above (plus a
//                                                   registry-snapshot section
//                                                   when --registry is given)
//
// It can also *produce* a trace, via the simulator factory:
//
//   pfair_trace simulate <pfair|partitioned|global-job|uniproc|wrr|cbs|bf|run>
//       [--processors=2] [--tasks=8] [--load=60] [--horizon=1000] [--seed=1]
//       [--prof=FILE] [--trace=FILE]
//
// runs a seeded random workload (total utilization = load% of the
// processor count) through the named scheduler stack and streams the
// JSONL event trace to stdout — pipe it straight back into the analysis
// subcommands.  --prof=FILE attaches self-profiling and writes the
// MetricsRegistry snapshot to FILE; --trace=FILE additionally writes
// Perfetto/Chrome JSON there (with a kernel-phase track when --prof is
// attached).  Neither side channel changes the JSONL stream on stdout.
//
// "-" reads the trace from stdin.  Exit status: 0 on success; 1 on bad
// usage (an argument that is not one of the subcommand's flags, a
// numeric flag whose value does not parse in full or is negative, or a
// configuration the factory refuses, such as --processors=0) or
// unreadable input; 2 when `validate` finds a schema violation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/factory.h"
#include "flags.h"
#include "obs/bus.h"
#include "obs/json.h"
#include "obs/jsonl_sink.h"
#include "obs/perfetto_sink.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "obs/trace_analysis.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using pfair::obs::LoadResult;

int usage() {
  std::fprintf(stderr,
               "usage: pfair_trace <summary|preemptors|migrations|first-miss|validate|"
               "report> <trace-file|-> [--top=N] [--window=N] [--registry=FILE]\n"
               "       pfair_trace simulate <scheduler> [--processors=N] [--tasks=N]"
               " [--load=PCT] [--horizon=N] [--seed=N] [--prof=FILE]"
               " [--trace=FILE]\n");
  return 1;
}

using pfair::tools::FlagValue;

// The flags after `pfair_trace <subcommand> <arg>`.  Every number is a
// count: a negative one would wrap (--tasks=-1 to SIZE_MAX).
constexpr pfair::tools::FlagSpec kSimulateFlags[] = {
    {"processors", FlagValue::kCount}, {"tasks", FlagValue::kCount},
    {"load", FlagValue::kCount},       {"horizon", FlagValue::kCount},
    {"seed", FlagValue::kCount},       {"prof", FlagValue::kText},
    {"trace", FlagValue::kText},
};
constexpr pfair::tools::FlagSpec kAnalysisFlags[] = {
    {"top", FlagValue::kCount},
    {"window", FlagValue::kCount},
    {"registry", FlagValue::kText},
};

bool read_stream(const char* path, std::string& out) {
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    out = ss.str();
    return true;
  }
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool load_events(const char* path, LoadResult& out) {
  if (std::strcmp(path, "-") == 0) {
    out = pfair::obs::load_jsonl(std::cin);
    return true;
  }
  std::ifstream f(path);
  if (!f) return false;
  out = pfair::obs::load_jsonl(f);
  return true;
}

/// `pfair_trace simulate <scheduler> [flags]`: build the named stack via
/// the engine factory, admit a seeded random workload, and stream the
/// JSONL event trace to stdout.
int run_simulate(int argc, char** argv) {
  using pfair::engine::SchedulerKind;
  const pfair::tools::Flags flags("pfair_trace", argc, argv, 3, kSimulateFlags);
  if (!flags.ok()) return usage();
  const auto kind = pfair::engine::scheduler_kind_from_string(argv[2]);
  if (!kind.has_value()) {
    std::fprintf(stderr, "pfair_trace: unknown scheduler '%s'; one of:", argv[2]);
    for (const SchedulerKind k : pfair::engine::all_scheduler_kinds())
      std::fprintf(stderr, " %s", pfair::engine::to_string(k));
    std::fprintf(stderr, "\n");
    return 1;
  }
  const int processors = static_cast<int>(flags.integer("processors", 2));

  const auto n_tasks = static_cast<std::size_t>(flags.integer("tasks", 8));
  const long long load_pct = flags.integer("load", 60);
  const auto horizon = static_cast<pfair::Time>(flags.integer("horizon", 1000));
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed", 1));
  const char* prof_file = flags.text("prof");
  const char* trace_file = flags.text("trace");

  pfair::engine::SimulatorConfig cfg;
  cfg.set_processors(processors);
  // The JSONL stream is the output; BF's slot trace and RUN's segment
  // log would only grow.
  cfg.bf.record_trace = false;
  cfg.run.record_segments = false;
  std::unique_ptr<pfair::engine::Simulator> sim;
  try {
    sim = pfair::engine::make_simulator(*kind, cfg);
  } catch (const std::invalid_argument& e) {
    return pfair::tools::bad_config("pfair_trace", e);
  }

  pfair::Rng rng(seed);
  const double u_cap =
      static_cast<double>(load_pct) / 100.0 * static_cast<double>(processors);
  const std::vector<pfair::UniTask> tasks =
      pfair::generate_uni_tasks(rng, n_tasks, u_cap, 64);

  if (prof_file != nullptr) {
    pfair::obs::prof::set_enabled(true);
    // Spans feed the Perfetto phase tracks; only record them when a
    // trace will render them (they grow with the horizon).
    pfair::obs::prof::set_span_recording(trace_file != nullptr);
  }

  pfair::obs::JsonlSink sink(std::cout);
  pfair::obs::EventBus bus;
  bus.add_sink(&sink);
  std::ofstream trace_os;
  std::optional<pfair::obs::PerfettoSink> perfetto;
  if (trace_file != nullptr) {
    trace_os.open(trace_file, std::ios::binary);
    if (!trace_os) {
      std::fprintf(stderr, "pfair_trace: cannot write %s\n", trace_file);
      return 1;
    }
    perfetto.emplace(trace_os);
    bus.add_sink(&*perfetto);
  }
  sim->attach_observer(&bus);
  std::size_t admitted = 0;
  for (const pfair::UniTask& t : tasks)
    if (sim->admit(pfair::engine::task_spec(t.execution, t.period))) ++admitted;
  sim->run_until(horizon);
  bus.flush();
  if (prof_file != nullptr) {
    pfair::obs::prof::snapshot_into(pfair::obs::MetricsRegistry::global());
    std::ofstream pf(prof_file, std::ios::binary);
    if (!pf) {
      std::fprintf(stderr, "pfair_trace: cannot write %s\n", prof_file);
      return 1;
    }
    pf << pfair::obs::MetricsRegistry::global().snapshot_json();
  }
  const pfair::engine::Metrics& m = sim->metrics();
  std::fprintf(stderr,
               "# %s: %zu/%zu tasks admitted, horizon %lld: %llu preemptions, "
               "%llu migrations, %llu misses\n",
               pfair::engine::to_string(*kind), admitted, tasks.size(),
               static_cast<long long>(horizon),
               static_cast<unsigned long long>(m.preemptions),
               static_cast<unsigned long long>(m.migrations),
               static_cast<unsigned long long>(m.deadline_misses));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  const char* path = argv[2];

  if (cmd == "simulate") return run_simulate(argc, argv);
  const pfair::tools::Flags flags("pfair_trace", argc, argv, 3, kAnalysisFlags);
  if (!flags.ok()) return usage();

  if (cmd == "validate") {
    std::string text;
    if (!read_stream(path, text)) {
      std::fprintf(stderr, "pfair_trace: cannot read %s\n", path);
      return 1;
    }
    const std::string problem = pfair::obs::validate_perfetto_json(text);
    if (!problem.empty()) {
      std::printf("INVALID: %s\n", problem.c_str());
      return 2;
    }
    std::printf("OK: Perfetto/Chrome trace JSON is well-formed\n");
    return 0;
  }

  LoadResult loaded;
  if (!load_events(path, loaded)) {
    std::fprintf(stderr, "pfair_trace: cannot read %s\n", path);
    return 1;
  }
  if (loaded.malformed_lines > 0)
    std::fprintf(stderr, "pfair_trace: skipped %zu malformed line(s)\n",
                 loaded.malformed_lines);
  const std::vector<pfair::obs::Event>& events = loaded.events;

  const auto top = static_cast<std::size_t>(flags.integer("top", 10));
  const auto window = static_cast<pfair::Time>(flags.integer("window", 3));

  if (cmd == "summary") {
    std::fputs(pfair::obs::format_summary(events).c_str(), stdout);
  } else if (cmd == "preemptors") {
    std::fputs(pfair::obs::format_preemptors(events, top).c_str(), stdout);
  } else if (cmd == "migrations") {
    std::fputs(pfair::obs::format_migration_matrix(events).c_str(), stdout);
  } else if (cmd == "first-miss") {
    std::fputs(pfair::obs::format_first_miss(events, window).c_str(), stdout);
  } else if (cmd == "report") {
    std::fputs(pfair::obs::format_summary(events).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(pfair::obs::format_preemptors(events, top).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(pfair::obs::format_migration_matrix(events).c_str(), stdout);
    std::fputs("\n", stdout);
    std::fputs(pfair::obs::format_first_miss(events, window).c_str(), stdout);
    if (const char* reg = flags.text("registry")) {
      // Registry-snapshot section: fast_forwarded_slots and the other
      // engine counters that never appear in the event stream (FF is
      // disabled while a bus is attached).
      std::string text;
      if (!read_stream(reg, text)) {
        std::fprintf(stderr, "pfair_trace: cannot read %s\n", reg);
        return 1;
      }
      const std::optional<pfair::obs::json::Value> doc = pfair::obs::json::parse(text);
      std::fputs("\n", stdout);
      if (!doc) {
        std::fprintf(stderr, "pfair_trace: %s is not valid JSON\n", reg);
        return 1;
      }
      std::fputs(pfair::obs::format_registry_snapshot(*doc).c_str(), stdout);
    }
  } else {
    return usage();
  }
  return 0;
}
