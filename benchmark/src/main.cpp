// pfair_bench: the repository benchmark.
//
//   pfair_bench --workload=NAME [--seed=N] [--seconds=S] [--trace[=FILE]]
//               [--expect-digest=HEX]
//   pfair_bench --smoke [--trace=FILE]
//   pfair_bench --list-metrics
//
// Prints every metric as `name value unit`, then one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace.  Exits 1 when a
// correctness check fails and 2 on bad usage.  See benchmark/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace {

using bench::Report;
using bench::RunOptions;

struct WorkloadEntry {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"serve-pfair-churn", bench::run_serve_pfair_churn},
    {"serve-gedf-exact", bench::run_serve_gedf_exact},
    {"sim-pd2-16p", bench::run_sim_pd2_16p},
    {"sim-roster", bench::run_sim_roster},
};

struct MetricDef {
  std::string name, unit, better;
};

std::vector<MetricDef> end_to_end_metrics() {
  return {{"ops_per_s", "1/s", "higher"},
          {"op_p50_us", "us", "lower"},
          {"op_p90_us", "us", "lower"},
          {"setup_s", "s", "lower"},
          {"peak_rss_mb", "MB", "lower"}};
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> out;
  for (std::size_t i = 0; i < bench::kLayerCount; ++i) {
    const std::string l = bench::layer_name(static_cast<bench::Layer>(i));
    out.push_back({l + ".ns", "ns", "lower"});
    out.push_back({l + ".calls", "count", "lower"});
  }
  out.push_back({"remainder.share", "ratio", "lower"});
  out.push_back({"trace.overhead", "ratio", "lower"});
  out.push_back({"tier2.memo_hit_share", "ratio", "higher"});
  out.push_back({"tier0.decided_share", "ratio", "higher"});
  out.push_back({"tier1.decided_share", "ratio", "lower"});
  out.push_back({"tier2.decided_share", "ratio", "lower"});
  out.push_back({"approx_share", "ratio", "lower"});
  out.push_back({"admit_share", "ratio", "higher"});
  out.push_back({"live_tasks", "count", "higher"});
  out.push_back({"queue.wait_p99_us", "us", "lower"});
  out.push_back({"client.late_p99_us", "us", "lower"});
  for (const char* k : {"pd2", "bf", "run"}) {
    const std::string t = k;
    out.push_back({t + ".sched_points", "count", "lower"});
    out.push_back({t + ".ns_per_sched_point", "ns", "lower"});
    out.push_back({t + ".preemptions", "count", "lower"});
    out.push_back({t + ".migrations", "count", "lower"});
    out.push_back({t + ".slots_per_s", "1/s", "higher"});
  }
  out.push_back({"pd2.fast_forwarded_share", "ratio", "higher"});
  return out;
}

void print_metric_list(const char* key, const std::vector<MetricDef>& defs, bool last) {
  std::printf("  \"%s\": [\n", key);
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                defs[i].name.c_str(), defs[i].unit.c_str(), defs[i].better.c_str(),
                i + 1 < defs.size() ? "," : "");
  std::printf("  ]%s\n", last ? "" : ",");
}

/// Prints the report; every listed metric appears, 0 where the workload
/// does not exercise that layer.
void print_report(const Report& rep, bool traced) {
  std::map<std::string, const bench::Metric*> have;
  for (const bench::Metric& m : rep.metrics) have[m.name] = &m;
  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& e : rep.errors) std::fprintf(stderr, "# FAIL: %s\n", e.c_str());
  const std::vector<MetricDef> defs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  char num[40];
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = have.find(defs[i].name);
    const double v = it == have.end() ? 0.0 : it->second->value;
    std::snprintf(num, sizeof num, "%.17g", v);
    std::printf("%s %s %s\n", defs[i].name.c_str(), num, defs[i].unit.c_str());
    json += (i > 0 ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

const char* flag_value(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) != 0) return nullptr;
  if (arg[n] == '=') return arg + n + 1;
  return arg[n] == '\0' ? "" : nullptr;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pfair_bench: %s\nusage: pfair_bench --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace[=FILE]] [--expect-digest=HEX]\n       pfair_bench --smoke "
               "[--trace=FILE]\n       pfair_bench --list-metrics\nworkloads:",
               why);
  for (const WorkloadEntry& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Runs one workload; an exception is a failed correctness check.
Report run_checked(const WorkloadEntry& w, const RunOptions& o) {
  try {
    return w.run(o);
  } catch (const std::exception& e) {
    Report rep;
    rep.attempted = 1;
    rep.failed = 1;
    rep.fail(std::string(w.name) + ": " + e.what());
    return rep;
  }
}

/// Every workload, untraced then traced, on small inputs with every check.
int smoke(const std::string& trace_file) {
  bool ok = true;
  for (const WorkloadEntry& w : kWorkloads) {
    RunOptions o;
    o.smoke = true;
    o.seconds = 0.15;
    std::printf("## %s\n", w.name);
    const Report plain = run_checked(w, o);
    print_report(plain, false);
    o.traced = true;
    o.seconds = 0.25;
    if (&w == &kWorkloads[0]) o.trace_file = trace_file;
    const Report traced = run_checked(w, o);
    print_report(traced, true);
    ok = ok && plain.correct && traced.correct;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string workload;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    if ((v = flag_value(a, "--workload")) != nullptr) {
      workload = v;
    } else if ((v = flag_value(a, "--seed")) != nullptr) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if ((v = flag_value(a, "--seconds")) != nullptr) {
      opts.seconds = std::strtod(v, nullptr);
    } else if ((v = flag_value(a, "--trace")) != nullptr) {
      opts.traced = true;
      opts.trace_file = v;
    } else if ((v = flag_value(a, "--expect-digest")) != nullptr) {
      opts.expect_digest = v;
    } else if (std::strcmp(a, "--smoke") == 0) {
      smoke_mode = true;
    } else if (std::strcmp(a, "--list-metrics") == 0) {
      std::printf("{\n");
      print_metric_list("end_to_end", end_to_end_metrics(), false);
      print_metric_list("per_layer", per_layer_metrics(), true);
      std::printf("}\n");
      return 0;
    } else {
      return usage((std::string("unknown argument ") + a).c_str());
    }
  }
  if (smoke_mode) return smoke(opts.trace_file);
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload != w.name) continue;
    std::printf("# workload %s seed %llu seconds %g traced %d\n", w.name,
                static_cast<unsigned long long>(opts.seed), opts.seconds, opts.traced ? 1 : 0);
    const Report rep = run_checked(w, opts);
    print_report(rep, opts.traced);
    return rep.correct ? 0 : 1;
  }
  return usage(workload.empty() ? "--workload is required" : "unknown workload");
}
