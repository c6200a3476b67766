// Admission throughput: how fast can the pfaird gate answer, and which
// tier does the answering?
//
// Drives one deterministic generated request stream (serve/request.h)
// through an in-process serve::Daemon per scheduler kind and reports
// the decision mix — admits/rejects/errors and the deciding tiers.
// Wall-clock throughput, the per-line decision latency (the obs::prof
// "serve.decision" timer) and the Tier-2 memo hit rate are printed to
// stdout for humans but
// deliberately kept OUT of the JSON report: every recorded field is a
// pure function of the flags, so two runs of this bench produce
// byte-identical BENCH_admission.json files (CI cmp's them) and
// pfair_perf can diff against the committed baseline without wall-time
// noise.
//
// Usage: admission_bench [--requests=5000] [--seed=42] [--load=150]
//                        [--processors=4] [--advance=1]
//                        [--batch=1] [--kind=all] [--json]
//
// --load is offered load in percent of capacity (150 = half again more
// than fits, so the reject paths get real traffic).  --batch=K rewrites
// the stream into {"op":"batch"} lines of K sub-requests
// (serve::batch_requests).  Decisions are byte-identical for every
// batch size and the JSON rows count sub-requests, so the recorded
// report is invariant across --batch — only the stdout throughput moves.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "engine/harness.h"
#include "obs/prof.h"
#include "serve/daemon.h"
#include "serve/request.h"

int main(int argc, char** argv) {
  using namespace pfair;

  engine::ExperimentHarness h("admission", argc, argv);
  const auto n_requests = static_cast<std::size_t>(h.flag("requests", 5000));
  const auto seed = h.seed(42);
  const double load = static_cast<double>(h.flag("load", 150)) / 100.0;
  const int m = static_cast<int>(h.flag("processors", 4));
  const auto advance = static_cast<Time>(h.flag("advance", 1));
  const auto batch = static_cast<std::size_t>(h.flag("batch", 1));
  const std::string only_kind = h.flag_string("kind", "all");

  serve::GenConfig gc;
  gc.count = n_requests;
  gc.seed = seed;
  gc.load = load;
  std::string requests = serve::generate_requests(gc);
  if (batch > 1) requests = serve::batch_requests(requests, batch);

  std::printf("# admission gate throughput (%zu requests, load %.0f%%, m=%d, batch=%zu)\n",
              n_requests, load * 100.0, m, batch);
  std::printf("# %-11s | %8s %8s %7s | %7s %7s %7s %7s | %10s | %8s %8s\n", "kind",
              "admits", "rejects", "errors", "tier0", "tier1", "tier2", "approx",
              "committed", "p50_ns", "p99_ns");

  // The latency columns read the serve.decision prof timer, reset per
  // kind (so a --prof snapshot covers the last kind served).
  obs::prof::set_enabled(true);
  for (const engine::SchedulerKind kind :
       {engine::SchedulerKind::kPfair, engine::SchedulerKind::kPartitioned,
        engine::SchedulerKind::kGlobalJob, engine::SchedulerKind::kUniproc}) {
    if (only_kind != "all" && only_kind != engine::to_string(kind)) continue;
    serve::DaemonConfig dc;
    dc.kind = kind;
    dc.processors = m;
    dc.advance_per_request = advance;
    serve::Daemon daemon(dc);

    obs::prof::reset();
    std::istringstream in(requests);
    std::ostringstream decisions;
    const auto start = std::chrono::steady_clock::now();
    (void)daemon.serve(in, decisions);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const serve::DaemonStats& s = daemon.stats();
    const obs::Histogram latency =
        obs::prof::collect_totals(obs::prof::Phase::kServeDecision).hist;
    const std::uint64_t hits = daemon.controller().memo_hits();
    const std::uint64_t misses = daemon.controller().memo_misses();
    std::printf("# %-11s | %8llu %8llu %7llu | %7llu %7llu %7llu %7llu | %10zu | "
                "%8.0f %8.0f   (%.0f decisions/sec, memo %llu/%llu = %.0f%% hits)\n",
                engine::to_string(kind), static_cast<unsigned long long>(s.admits),
                static_cast<unsigned long long>(s.rejects),
                static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.tier0),
                static_cast<unsigned long long>(s.tier1),
                static_cast<unsigned long long>(s.tier2),
                static_cast<unsigned long long>(s.approx), daemon.controller().committed(),
                latency.p50(), latency.p99(),
                secs > 0.0 ? static_cast<double>(s.requests) / secs : 0.0,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(hits + misses),
                hits + misses > 0
                    ? 100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses)
                    : 0.0);

    // Deterministic fields only: no wall time, no latency numbers, no
    // memo counters (the memo capacity shifts hit/miss splits without
    // changing any decision).  "requests" counts sub-requests, so these
    // rows are invariant across --batch.
    h.add_row()
        .set("kind", std::string(engine::to_string(kind)))
        .set("requests", static_cast<long long>(s.requests))
        .set("admits", static_cast<long long>(s.admits))
        .set("rejects", static_cast<long long>(s.rejects))
        .set("errors", static_cast<long long>(s.errors))
        .set("tier0", static_cast<long long>(s.tier0))
        .set("tier1", static_cast<long long>(s.tier1))
        .set("tier2", static_cast<long long>(s.tier2))
        .set("approx", static_cast<long long>(s.approx))
        .set("committed", static_cast<long long>(daemon.controller().committed()))
        .set("total_weight", daemon.controller().total_weight().to_string())
        .set("sim_now", static_cast<long long>(daemon.simulator().now()));
  }
  return h.finish();
}
