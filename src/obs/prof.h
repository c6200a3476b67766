// Scoped self-profiling: phase timers over the engine's own hot paths.
//
// A ProfScope wall-clock-times one phase of engine work — the Pfair
// miss sweep, top-M selection, processor assignment, a ThreadPool job —
// into per-thread accumulators, merged on demand into the
// obs::MetricsRegistry as named timers with p50/p95/p99.  Optional span
// recording additionally logs every (phase, worker, slot, ns) interval
// so PerfettoSink can draw a kernel-phase track and per-worker
// utilization tracks next to the schedule.
//
// Cost model (the reason this can live inside the slot kernel):
//   - detached (the default): ProfScope construction is one relaxed
//     atomic load and a branch — no clock is read, nothing is stored;
//   - attached: two now_ns() reads plus a handful of relaxed
//     single-writer atomic updates — no lock, no search — per scope.
//     Measured overhead is in EXPERIMENTS.md "Profiling".
//
// Determinism: profiling writes only to prof's own thread-local buffers
// and (at snapshot time) the registry; no scheduling decision ever
// reads either.  Seeded simulator output is byte-identical with
// profiling attached or detached — pinned by tests/obs/phase_trace_test.
//
// Threading: each thread accumulates into its own buffer (registered
// once, under a global mutex).  The aggregate fields are single-writer
// relaxed atomics — only the owning thread writes, collectors only
// read — so collection from another thread is race-free (and exact at
// quiesce points) with zero locking on the record path; only the
// opt-in span log takes a per-buffer mutex.  Buffers persist for the
// process lifetime; reset() zeroes them in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"
#include "util/types.h"

namespace pfair::obs {
class MetricsRegistry;
}  // namespace pfair::obs

namespace pfair::obs::prof {

/// The instrumented phases.  A fixed enum (not strings) keeps the hot
/// path at array indexing; phase_name() maps to the registry timer key.
enum class Phase : std::uint8_t {
  kMissSweep,  ///< ready-queue deadline-miss pops
  kSelect,     ///< top-M pop + subtask advancement
  kRelease,    ///< release calendar drain
  kAssign,     ///< processor assignment + per-slot accounting
  kAdmit,      ///< admission (admit()/join()) decision path
  kPoolJob,    ///< one ThreadPool job execution (worker busy time)
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kPoolJob) + 1;

/// Registry timer name of a phase ("legacy.select", "pool.job", ...).
[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Monotonic nanoseconds since an arbitrary origin, for measuring
/// deltas.  On x86 a TSC read scaled by a factor calibrated once against
/// steady_clock (~0.1% accurate); steady_clock elsewhere.  The first
/// call pays a ~200 µs calibration spin unless set_enabled(true) already
/// did.  Thread-safe; usable with profiling detached.
[[nodiscard]] std::uint64_t now_ns() noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_spans;
/// Records one finished scope into the calling thread's buffer.
void record(Phase p, Time slot, std::uint64_t ns);
}  // namespace detail

/// Master switch.  Everything below is inert (and ProfScope free) while
/// this is false.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept;

/// Span recording (needs enabled()): log individual intervals for the
/// Perfetto phase tracks, not just aggregates.  Off by default — spans
/// grow with the horizon, aggregates do not.
inline bool span_recording() noexcept {
  return detail::g_spans.load(std::memory_order_relaxed);
}
void set_span_recording(bool on) noexcept;

/// Labels the calling thread for span attribution (-1 = main/unnamed).
/// engine::ThreadPool tags each worker with its index.
void set_worker_index(std::int32_t index) noexcept;

/// One logged interval.  `seq` is per-thread monotone so span order is
/// reconstructible even though wall durations vary run to run.
struct Span {
  Phase phase = Phase::kMissSweep;
  std::int32_t worker = -1;  ///< pool worker index, or -1 for the main thread
  Time slot = -1;            ///< simulated slot the work belonged to (-1 = none)
  std::uint64_t ns = 0;
  std::uint64_t seq = 0;
};

/// Aggregated totals for one phase, merged across every thread.
struct PhaseTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  Histogram hist;  ///< shared exponential ns buckets (sample_histogram())
};

/// The bucket layout every per-thread phase histogram uses (32 ns lower
/// edge, ×2 per bucket — covers sub-µs scopes to multi-second stalls).
[[nodiscard]] Histogram sample_histogram();

/// Merged per-phase totals across all threads (index = Phase).
[[nodiscard]] std::vector<PhaseTotals> collect_totals();

/// All recorded spans, sorted by (slot, phase, worker, seq) — a
/// deterministic order even though the ns payloads are wall-clock.
[[nodiscard]] std::vector<Span> collect_spans();

/// Publishes collect_totals() into `reg` as timers named phase_name(p)
/// (phases with zero samples are skipped).  Idempotent — each call
/// replaces the previous publication.
void snapshot_into(MetricsRegistry& reg);

/// Zeroes every thread's accumulators and span log in place (buffer
/// registrations survive).  Does not touch enabled()/span_recording().
void reset();

/// Times one phase while in scope.  `slot` is the simulated time the
/// work belongs to (for span tracks).
class ProfScope {
 public:
  explicit ProfScope(Phase p, Time slot = -1) noexcept
      : phase_(p), slot_(slot), active_(enabled()) {
    if (active_) t0_ = now_ns();
  }
  ~ProfScope() {
    if (active_) detail::record(phase_, slot_, now_ns() - t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint64_t t0_ = 0;
  Phase phase_;
  Time slot_;
  bool active_;
};

}  // namespace pfair::obs::prof
