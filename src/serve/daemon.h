// The pfaird serving core: a request loop around a live simulator.
//
// The daemon owns one engine::Simulator (any factory kind) and an
// AdmissionController mirroring its committed task set.  Each JSONL
// request line (serve/request.h) is parsed, gated through the tiered
// admission test, applied to the simulator through the dynamic-task
// request API (join/leave/reweight on engine::Simulator), and answered
// with one JSONL decision line.
//
// Determinism contract: a decision line is a pure function of the
// request history — it carries the simulator clock, never wall-clock —
// so running the same request log twice produces byte-identical
// decision logs (CI diffs them).  Wall-clock only feeds the
// *observability* side: per-decision latency lands in a histogram and
// the MetricsRegistry (serve.* counters, the "serve.decision" timer),
// which is a write-only side channel.
//
// The simulated clock advances two ways: an explicit {"op":"advance"}
// request, and optionally `advance_per_request` slots after every
// request — the "quantum loop keeps running while requests stream in"
// mode the ISSUE asks for.
//
// Batching.  A {"op":"batch","requests":[...]} line answers with one
// decision line per sub-request, and `serve()` can additionally group
// consecutive input lines into pipeline batches of `config.batch`
// before answering them.  Either way the gate first *prewarms* its
// Tier-2 memo for the whole group — the independent exact simulations
// fan out across a ThreadPool of `config.jobs` workers — and then the
// requests are answered strictly in request order on this thread.
// Warming is a pure cache fill against the group-entry mirror state
// (a sub-request that changes the task set mid-group just turns the
// later warms into misses, recomputed cold on the decide path), so
// decision logs are byte-identical to sequential evaluation for every
// (batch, jobs) setting: the CI smoke diffs them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/factory.h"
#include "obs/bus.h"
#include "obs/histogram.h"
#include "serve/admission.h"
#include "serve/request.h"

namespace pfair::serve {

struct DaemonConfig {
  engine::SchedulerKind kind = engine::SchedulerKind::kPfair;
  int processors = 1;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;  ///< uniproc / global-job flavour
  bool overhead_aware = false;     ///< Tier 1 runs Eq.-(3) inflation
  OverheadParams overhead;         ///< Eq.-(3) inputs
  double cache_delay_us = 33.3;    ///< D(T) charged per task (paper mean)
  std::uint64_t exact_budget = 1u << 20;  ///< Tier-2 event budget (0 = off)
  Time advance_per_request = 0;    ///< slots to run after each request
  bool measure_latency = true;     ///< per-decision timing (obs::prof::now_ns)
  int mirror_shards = 16;          ///< gate task-mirror shards
  std::size_t memo_capacity = 1u << 16;  ///< Tier-2 memo entries (0 = off)
  std::size_t batch = 1;           ///< serve() pipeline group size
  int jobs = 1;                    ///< memo-prewarm workers (1 = inline)
  std::size_t residents = 0;       ///< synthetic resident ballast (benches)
};

/// Request-loop totals (the registry mirror; see publish_registry()).
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t admits = 0;   ///< join/reweight granted
  std::uint64_t rejects = 0;  ///< join/reweight denied
  std::uint64_t errors = 0;   ///< parse errors, unknown tasks, not-dynamic
  std::uint64_t tier0 = 0, tier1 = 0, tier2 = 0;  ///< deciding tier
  std::uint64_t approx = 0;   ///< Tier-2 budget fell back to Tier 1
  std::uint64_t latency_count = 0;
  std::uint64_t latency_total_ns = 0;
  std::uint64_t latency_max_ns = 0;
  obs::Histogram latency_ns = obs::Histogram::exponential(16.0, 2.0, 24);
  std::uint64_t batches = 0;           ///< batch ops + pipeline groups
  std::uint64_t batched_requests = 0;  ///< sub-requests across batches
  std::uint64_t batch_max = 0;         ///< largest batch seen
  obs::Histogram batch_size = obs::Histogram::exponential(1.0, 2.0, 16);
};

namespace detail {
class PrewarmPool;  // owns the optional ThreadPool (keeps engine/parallel.h out of this header)
}  // namespace detail

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  /// Handles one request line, returns the decision line(s) (no
  /// trailing newline).  Every line gets exactly one answer — except a
  /// batch line, whose answer is one line per sub-request joined with
  /// '\n', byte-identical to the sub-requests arriving individually.
  [[nodiscard]] std::string process_line(std::string_view line);

  /// Reads JSONL requests from `in` until EOF, writing one decision
  /// line each to `out`.  Returns the number of requests handled.
  std::uint64_t serve(std::istream& in, std::ostream& out);

  /// Admission events (kAdmitRequest/kAdmitGrant/kAdmitReject) are
  /// emitted here; pass nullptr to detach.
  void attach_observer(obs::EventBus* bus) noexcept { bus_ = bus; }

  /// Pushes the request-loop totals into MetricsRegistry::global():
  /// serve.requests/admits/rejects/errors/tier0/tier1/tier2/approx/
  /// tier2_memo_hits/tier2_memo_misses counters plus the
  /// "serve.decision" timer (p50/p95/p99 from the latency histogram)
  /// and the "serve.batch_size" distribution.  Call once after serving.
  void publish_registry() const;

  [[nodiscard]] const DaemonStats& stats() const noexcept { return stats_; }
  [[nodiscard]] engine::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] const AdmissionController& controller() const noexcept { return gate_; }

 private:
  /// Decides/applies `r` and appends its decision line to `out`
  /// through obs::json::ObjectWriter — byte-identical to the dumped
  /// Object form, without the per-line Value tree.
  void write_response(const Request& r, std::uint64_t seq, std::string& out);
  void note_decision(const Decision& d, const UniTask& t, TaskId task);
  /// One request answered into `out`: stats, seq, write_response(),
  /// per-request advance.
  void answer_request(const Request& r, std::string& out);
  /// Answers one already-parsed line (error lines included) into `out`
  /// with latency accounting — the shared tail of process_line_into()
  /// and the pipelined serve() loop, which parses each line only once.
  void answer_line(const std::optional<Request>& req, std::string_view error,
                   std::string& out);
  /// process_line() into a caller-owned (reusable) buffer — the
  /// serve() loop's allocation-free spelling.
  void process_line_into(std::string_view line, std::string& out);
  /// Prewarms the gate's Tier-2 memo for every join/reweight candidate
  /// in `reqs` (batch sub-requests included) against the current state.
  void prewarm(const std::vector<Request>& reqs);
  /// The shared prewarm tail: advance + gate warm of collected candidates.
  void warm_candidates(const std::vector<std::pair<UniTask, TaskId>>& cands);
  void note_batch(std::size_t size);

  DaemonConfig config_;
  std::unique_ptr<engine::Simulator> sim_;
  AdmissionController gate_;
  std::unique_ptr<detail::PrewarmPool> pool_;  ///< engaged iff jobs > 1
  obs::EventBus* bus_ = nullptr;
  DaemonStats stats_;
  std::uint64_t seq_ = 0;          ///< request sequence number (echoed back)
  TaskId next_static_id_ = 0;      ///< id source for non-dynamic kinds
};

}  // namespace pfair::serve
