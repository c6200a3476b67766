// pfair_perf: offline perf-metric tooling over BENCH_*.json reports and
// MetricsRegistry snapshots — the CLI end of the CI regression gate.
//
//   pfair_perf snapshot <file.json>
//       pretty-prints a registry snapshot (counters / gauges / timers)
//       or, for a BENCH report, the flattened metric list
//
//   pfair_perf diff <baseline.json> <current.json>
//       [--threshold=PCT] [--all]
//       compares the two documents metric by metric.  A change counts
//       only if it clears both the statistical noise (ci99 half-widths
//       where the cells carry them) and the relative threshold
//       (default 10%).  Direction heuristics decide regression vs
//       improvement; unknown directions and metrics present on one
//       side only (new / gone) never fail the gate.
//
//   pfair_perf trend <dir> [--metric=SUBSTR]
//       walks every *.json in <dir> (sorted by filename) and prints
//       each metric's trajectory across the files
//
// Exit status: 0 success / no regressions; 2 when diff found at least
// one regression; 1 on bad usage (an argument that is not one of the
// subcommand's flags, or a --threshold that is not a non-negative
// number) or unreadable input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "obs/json.h"
#include "obs/perf_diff.h"
#include "obs/trace_analysis.h"

namespace {

namespace perf = pfair::obs::perf;
namespace json = pfair::obs::json;

int usage() {
  std::fprintf(stderr,
               "usage: pfair_perf snapshot <file.json>\n"
               "       pfair_perf diff <baseline.json> <current.json>"
               " [--threshold=PCT] [--all]\n"
               "       pfair_perf trend <dir> [--metric=SUBSTR]\n");
  return 1;
}

std::optional<json::Value> load_json(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream ss;
  ss << f.rdbuf();
  return json::parse(ss.str());
}

using pfair::tools::FlagValue;

constexpr pfair::tools::FlagSpec kDiffFlags[] = {
    {"threshold", FlagValue::kAmount},
    {"all", FlagValue::kSwitch},
};
constexpr pfair::tools::FlagSpec kTrendFlags[] = {{"metric", FlagValue::kText}};

int run_snapshot(const char* path) {
  const std::optional<json::Value> doc = load_json(path);
  if (!doc) {
    std::fprintf(stderr, "pfair_perf: cannot read/parse %s\n", path);
    return 1;
  }
  if (doc->find("counters") != nullptr || doc->find("timers") != nullptr) {
    std::fputs(pfair::obs::format_registry_snapshot(*doc).c_str(), stdout);
    return 0;
  }
  const perf::MetricMap metrics = perf::flatten(*doc);
  std::printf("flattened metrics (%zu)\n", metrics.size());
  for (const auto& [name, m] : metrics) {
    if (m.noise != 0.0)
      std::printf("  %-48s %.6g ±%.3g\n", name.c_str(), m.value, m.noise);
    else
      std::printf("  %-48s %.6g\n", name.c_str(), m.value);
  }
  return 0;
}

int run_diff(int argc, char** argv) {
  const pfair::tools::Flags flags("pfair_perf", argc, argv, 4, kDiffFlags);
  if (!flags.ok()) return usage();
  const std::optional<json::Value> base = load_json(argv[2]);
  const std::optional<json::Value> cur = load_json(argv[3]);
  if (!base || !cur) {
    std::fprintf(stderr, "pfair_perf: cannot read/parse %s\n", !base ? argv[2] : argv[3]);
    return 1;
  }
  perf::DiffOptions opt;
  opt.threshold = flags.number("threshold", 100.0 * opt.threshold) / 100.0;
  const perf::DiffReport report =
      perf::diff(perf::flatten(*base), perf::flatten(*cur), opt);
  std::printf("# %s -> %s (threshold %.1f%%)\n", argv[2], argv[3], 100.0 * opt.threshold);
  std::fputs(perf::format_diff(report, flags.has("all")).c_str(), stdout);
  return report.regressions > 0 ? 2 : 0;
}

int run_trend(int argc, char** argv) {
  namespace fs = std::filesystem;
  const pfair::tools::Flags flags("pfair_perf", argc, argv, 3, kTrendFlags);
  if (!flags.ok()) return usage();
  std::error_code ec;
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(argv[2], ec)) {
    if (e.is_regular_file() && e.path().extension() == ".json") files.push_back(e.path());
  }
  if (ec) {
    std::fprintf(stderr, "pfair_perf: cannot list %s: %s\n", argv[2],
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "pfair_perf: no *.json files in %s\n", argv[2]);
    return 1;
  }
  const char* filter = flags.text("metric");
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> series;  // name -> value per file (NaN gap)
  std::size_t file_idx = 0;
  for (const fs::path& p : files) {
    const std::optional<json::Value> doc = load_json(p.string().c_str());
    names.push_back(p.filename().string());
    if (doc) {
      for (const auto& [name, m] : perf::flatten(*doc)) {
        auto& v = series[name];
        v.resize(file_idx, std::nan(""));
        v.push_back(m.value);
      }
    } else {
      std::fprintf(stderr, "pfair_perf: skipping unparsable %s\n", p.string().c_str());
    }
    ++file_idx;
  }
  std::printf("# trend over %zu file(s):", files.size());
  for (const std::string& n : names) std::printf(" %s", n.c_str());
  std::printf("\n");
  for (auto& [name, values] : series) {
    if (filter != nullptr && name.find(filter) == std::string::npos) continue;
    values.resize(files.size(), std::nan(""));
    std::printf("%-48s", name.c_str());
    for (const double v : values) {
      if (std::isnan(v))
        std::printf("  %10s", "-");
      else
        std::printf("  %10.4g", v);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "snapshot") {
    if (!pfair::tools::Flags("pfair_perf", argc, argv, 3, {}).ok()) return usage();
    return run_snapshot(argv[2]);
  }
  if (cmd == "diff") {
    if (argc < 4) return usage();
    return run_diff(argc, argv);
  }
  if (cmd == "trend") return run_trend(argc, argv);
  return usage();
}
