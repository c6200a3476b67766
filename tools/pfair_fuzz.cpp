// pfair_fuzz: property-based differential fuzzing CLI (qa/ subsystem).
//
// Generates `--cases` biased random task systems (qa/gen.h), runs every
// applicable invariant oracle on each (qa/oracle.h), and deterministically
// shrinks any failure to a minimal repro (qa/shrink.h).  Exit status is 0
// iff no oracle was violated.
//
// Usage: pfair_fuzz [--cases=1000] [--seed=1] [--jobs=N]
//                   [--profile=uniform|bimodal|heavy|harmonic|degenerate|dynamic]
//                   [--max-procs=4] [--max-tasks=10] [--max-shrunk=8]
//                   [--artifacts=DIR] [--inject-pd2-b-bit-flip=0] [--json]
//
// Determinism: stdout and the --json report are byte-identical for any
// --jobs value (wall-clock goes to stderr), and every failure replays
// from its printed (seed, case) pair alone.  On failure, two artifacts
// are written to --artifacts (default "."): pfair_fuzz_repro.jsonl (one
// JSON object per failure: original + shrunk case, oracle, detail) and
// pfair_fuzz_repro.cc (ready-to-paste gtest cases for the shrunk
// repros; promotion path documented in EXPERIMENTS.md).
//
// --inject-pd2-b-bit-flip=1 flips PD2's b-bit tie-break (the deliberate
// bug behind set_pd2_b_bit_flip_for_test) — the end-to-end self-test
// that the campaign pipeline actually catches and shrinks a scheduler
// bug.  CI runs it and asserts a nonzero exit.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/priority.h"
#include "engine/harness.h"
#include "obs/json.h"
#include "qa/campaign.h"

namespace {

using namespace pfair;

bool write_artifacts(const std::string& dir, const qa::CampaignResult& result) {
  const std::string base = dir.empty() ? std::string(".") : dir;
  const std::string jsonl_path = base + "/pfair_fuzz_repro.jsonl";
  const std::string gtest_path = base + "/pfair_fuzz_repro.cc";
  std::ofstream jsonl(jsonl_path);
  std::ofstream gtest(gtest_path);
  if (!jsonl || !gtest) {
    std::fprintf(stderr, "pfair_fuzz: cannot write artifacts under %s\n", base.c_str());
    return false;
  }
  gtest << "// Shrunk fuzz repros — paste into tests/qa/ and keep (see\n"
           "// EXPERIMENTS.md, \"Fuzzing & invariant oracles\").\n";
  for (const qa::CampaignFailure& f : result.failures) {
    obs::json::Object o;
    o["oracle"] = obs::json::Value(f.verdict.oracle);
    o["detail"] = obs::json::Value(f.verdict.detail);
    o["transformations"] = obs::json::Value(static_cast<double>(f.transformations));
    o["original"] = qa::case_to_json(f.original);
    o["shrunk"] = qa::case_to_json(f.shrunk);
    jsonl << obs::json::Value(std::move(o)).dump() << "\n";
    gtest << "\n" << qa::case_to_gtest(f.shrunk);
  }
  std::fprintf(stderr, "pfair_fuzz: wrote %s and %s\n", jsonl_path.c_str(),
               gtest_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfair;

  engine::ExperimentHarness h("pfair_fuzz", argc, argv);

  qa::CampaignConfig config;
  config.cases = static_cast<std::uint64_t>(h.flag("cases", 1000));
  config.seed = h.seed(1);
  config.jobs = h.jobs();
  config.max_shrunk = static_cast<std::size_t>(h.flag("max-shrunk", 8));
  config.gen.max_processors = static_cast<int>(h.flag("max-procs", 4));
  config.gen.max_tasks = static_cast<std::size_t>(h.flag("max-tasks", 10));

  const std::string profile = h.flag_string("profile", "all");
  if (profile != "all") {
    bool found = false;
    for (const qa::Profile p : qa::all_profiles()) {
      if (profile == qa::profile_name(p)) {
        config.gen.only_profile = p;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "pfair_fuzz: unknown --profile '%s'\n", profile.c_str());
      return 2;
    }
  }

  const bool inject = h.flag("inject-pd2-b-bit-flip", 0) != 0;
  set_pd2_b_bit_flip_for_test(inject);

  const auto start = std::chrono::steady_clock::now();
  const qa::CampaignResult result = qa::run_campaign(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  set_pd2_b_bit_flip_for_test(false);

  std::printf("# pfair_fuzz: %llu cases, seed %llu%s\n",
              static_cast<unsigned long long>(result.cases),
              static_cast<unsigned long long>(config.seed),
              inject ? " [INJECTED PD2 b-bit flip]" : "");
  std::printf("# %-26s %10s %10s\n", "oracle", "applied", "violated");
  for (const qa::OracleStats& s : result.oracles) {
    std::printf("  %-26s %10llu %10llu\n", s.name.c_str(),
                static_cast<unsigned long long>(s.applied),
                static_cast<unsigned long long>(s.violated));
    h.add_row()
        .set("oracle", s.name)
        .set("applied", static_cast<long long>(s.applied))
        .set("violated", static_cast<long long>(s.violated));
  }

  if (!result.failures.empty()) {
    std::printf("# %zu failing case(s):\n", result.failures.size());
    for (const qa::CampaignFailure& f : result.failures) {
      std::printf(
          "  seed %llu case %llu [%s]: %s: %s\n"
          "    shrunk to %zu task(s), M=%d, horizon %lld (%d transformation(s))\n",
          static_cast<unsigned long long>(f.original.seed),
          static_cast<unsigned long long>(f.original.index),
          qa::profile_name(f.original.profile), f.verdict.oracle.c_str(),
          f.verdict.detail.c_str(), f.shrunk.tasks.size(), f.shrunk.processors,
          static_cast<long long>(f.shrunk.horizon), f.transformations);
      h.add_row()
          .set("case", static_cast<long long>(f.original.index))
          .set("oracle", f.verdict.oracle)
          .set("detail", f.verdict.detail)
          .set("shrunk_tasks", static_cast<long long>(f.shrunk.tasks.size()))
          .set("shrunk_horizon", static_cast<long long>(f.shrunk.horizon))
          .set("transformations", static_cast<long long>(f.transformations));
    }
    write_artifacts(h.flag_string("artifacts", "."), result);
  } else {
    std::printf("# all oracles passed\n");
  }

  std::fprintf(stderr, "# wall %.2fs (--jobs %d)\n", wall, config.jobs);
  return h.finish(result.failures.empty() ? 0 : 1);
}
