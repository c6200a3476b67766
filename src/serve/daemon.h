// The pfaird serving core: a request loop around a live simulator.
//
// The daemon owns one engine::Simulator (any factory kind) and an
// AdmissionController mirroring its committed task set.  Each JSONL
// request line (serve/request.h) is parsed, gated through the tiered
// admission test, applied to the simulator through the dynamic-task
// request API (join/leave/reweight on engine::Simulator), and answered
// with one JSONL decision line.  Everything runs on the calling thread.
// Task ids are the simulator's (assigned in order, never reused) or, for
// the static kinds, a counter from 0, so they index the gate's flat
// mirror directly; an id a client sends that was never assigned answers
// unknown-task.
//
// Determinism contract: a decision line is a pure function of the
// request history — it carries the simulator clock, never wall-clock —
// so running the same request log twice produces byte-identical
// decision logs (CI diffs them).  Wall-clock only feeds the
// *observability* side, and the daemon stores none of it: each request
// line is one obs::prof "serve.decision" scope, timed only while
// profiling is enabled and kept with every other phase timer, and
// publish_registry() folds those timers into the MetricsRegistry next to
// the serve.* counters.
//
// The simulated clock advances two ways: an explicit {"op":"advance"}
// request, and optionally `advance_per_request` slots after every
// request — the "quantum loop keeps running while requests stream in"
// mode.
//
// Batches.  A {"op":"batch","requests":[...]} line answers with one
// decision line per sub-request, in request order, each byte-identical
// to the line that sub-request would get arriving alone.  A batch saves
// the client round trips; the daemon decides its sub-requests one after
// another like any other lines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "engine/factory.h"
#include "obs/bus.h"
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
  int mirror_shards = 16;          ///< ignored; delete with the next change to benchmark/
  std::size_t memo_capacity = 1u << 16;  ///< Tier-2 memo entries (0 = off)
};

/// Request-loop totals (the registry mirror; see publish_registry()).
/// Counts only: decision timings live in obs::prof.
struct DaemonStats {
  std::uint64_t requests = 0;
  std::uint64_t admits = 0;   ///< join/reweight granted
  std::uint64_t rejects = 0;  ///< join/reweight denied
  std::uint64_t errors = 0;   ///< parse errors, unknown tasks, not-dynamic
  std::uint64_t tier0 = 0, tier1 = 0, tier2 = 0;  ///< deciding tier
  std::uint64_t approx = 0;   ///< Tier-2 budget fell back to Tier 1
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);

  /// Handles one request line, returns the decision line(s) (no
  /// trailing newline).  Every line gets exactly one answer — except a
  /// batch line, whose answer is one line per sub-request joined with
  /// '\n', byte-identical to the sub-requests arriving individually.
  [[nodiscard]] std::string process_line(std::string_view line);

  /// Reads JSONL requests from `in` until EOF, writing one decision
  /// line each to `out`.  Returns the number of input lines handled.
  std::uint64_t serve(std::istream& in, std::ostream& out);

  /// Admission events (kAdmitRequest/kAdmitGrant/kAdmitReject) are
  /// emitted here; pass nullptr to detach.
  void attach_observer(obs::EventBus* bus) noexcept { bus_ = bus; }

  /// Pushes the request-loop totals into MetricsRegistry::global() —
  /// serve.requests/admits/rejects/errors/tier0/tier1/tier2/approx and
  /// serve.tier2_memo_hits/tier2_memo_misses counters — and publishes
  /// the obs::prof phase timers, "serve.decision" (p50/p95/p99 per
  /// request line) among them.  Call once after serving.
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
  /// The error line for an unparsable request, then the per-request
  /// advance.
  void answer_error(std::string_view error, std::string& out);
  void advance_per_request();
  /// process_line() into a caller-owned (reusable) buffer — the
  /// serve() loop's allocation-free spelling.
  void process_line_into(std::string_view line, std::string& out);

  DaemonConfig config_;
  std::unique_ptr<engine::Simulator> sim_;
  AdmissionController gate_;
  obs::EventBus* bus_ = nullptr;
  DaemonStats stats_;
  std::uint64_t seq_ = 0;          ///< request sequence number (echoed back)
  TaskId next_static_id_ = 0;      ///< id source for non-dynamic kinds
};

}  // namespace pfair::serve
