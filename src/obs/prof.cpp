#include "obs/prof.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PFAIR_PROF_TSC 1
#endif

#include "obs/registry.h"

namespace pfair::obs::prof {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_spans{false};
}  // namespace detail

namespace {

/// sample_histogram() is exponential(32, 2, 26): bucket j (1-based)
/// covers [2^(j+4), 2^(j+5)) ns, so the hot path indexes buckets with
/// one bit scan instead of a binary search over the edge array.
/// Slot 0 = underflow (< 32 ns), 1..26 = buckets, 27 = overflow.
constexpr std::size_t kBucketSlots = 28;

std::size_t bucket_index(std::uint64_t ns) noexcept {
  if (ns < 32) return 0;
  const auto bw = static_cast<std::size_t>(std::bit_width(ns));  // >= 6
  return bw <= 31 ? bw - 5 : kBucketSlots - 1;
}

/// One phase's accumulators.  Single-writer discipline: only the owning
/// thread writes (relaxed load+store — plain moves on x86, no RMW);
/// collectors read the same atomics, so cross-thread collection is
/// race-free without any lock on the record path.  A collector running
/// *while* the owner records may see a count/total pair one sample
/// apart — snapshots are taken at quiesce points, where they are exact.
struct PhaseCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
  std::array<std::atomic<std::uint64_t>, kBucketSlots> buckets{};
};

struct ThreadBuf {
  std::array<PhaseCell, kPhaseCount> phases{};
  std::atomic<std::int32_t> worker{-1};
  std::mutex mu;  ///< guards the span log only (span recording is opt-in)
  std::vector<Span> spans;
  std::uint64_t next_seq = 0;
};

struct ProfState {
  std::mutex mu;               ///< guards `bufs` registration
  std::deque<ThreadBuf> bufs;  ///< stable addresses; never shrinks
};

ProfState& state() {
  static ProfState s;
  return s;
}

thread_local ThreadBuf* tl_buf = nullptr;

ThreadBuf& local_buf() {
  if (tl_buf == nullptr) {
    ProfState& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.bufs.emplace_back();
    tl_buf = &s.bufs.back();
  }
  return *tl_buf;
}

// The kMissSweep/kSelect names predate the single slot kernel; they stay
// because recorded baselines and the benchmark look them up by name.
constexpr const char* kPhaseNames[kPhaseCount] = {
    "legacy.miss_sweep",// kMissSweep
    "legacy.select",    // kSelect
    "sim.release",      // kRelease
    "sim.assign",       // kAssign
    "sim.admit",        // kAdmit
    "serve.decision",   // kServeDecision
    "serve.tier2",      // kServeTier2
    "serve.write",      // kServeWrite
    "pool.job",         // kPoolJob
};

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#ifdef PFAIR_PROF_TSC
/// ns per TSC tick, calibrated once against steady_clock over a ~200 µs
/// spin (~0.1% accurate — plenty for profiling and latency histograms).
/// set_enabled(true) calibrates eagerly so no timed scope pays the spin;
/// the fallback in now_ns() covers the first call of any other user.
/// Concurrent calibrations store near-identical factors — harmless.
std::atomic<double> g_ns_per_tick{0.0};

double calibrate_tsc() noexcept {
  const std::uint64_t s0 = steady_ns();
  const std::uint64_t t0 = __rdtsc();
  while (steady_ns() - s0 < 200000) {
  }
  const std::uint64_t s1 = steady_ns();
  const std::uint64_t t1 = __rdtsc();
  const double f = static_cast<double>(s1 - s0) / static_cast<double>(t1 - t0);
  g_ns_per_tick.store(f, std::memory_order_relaxed);
  return f;
}
#endif

}  // namespace

const char* phase_name(Phase p) noexcept {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

std::uint64_t now_ns() noexcept {
#ifdef PFAIR_PROF_TSC
  double f = g_ns_per_tick.load(std::memory_order_relaxed);
  if (f == 0.0) f = calibrate_tsc();
  return static_cast<std::uint64_t>(static_cast<double>(__rdtsc()) * f);
#else
  return steady_ns();
#endif
}

namespace detail {

void record(Phase p, Time slot, std::uint64_t ns) {
  ThreadBuf& b = local_buf();
  PhaseCell& c = b.phases[static_cast<std::size_t>(p)];
  c.count.store(c.count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  c.total_ns.store(c.total_ns.load(std::memory_order_relaxed) + ns,
                   std::memory_order_relaxed);
  if (ns > c.max_ns.load(std::memory_order_relaxed))
    c.max_ns.store(ns, std::memory_order_relaxed);
  std::atomic<std::uint64_t>& bucket = c.buckets[bucket_index(ns)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  if (span_recording()) {
    const std::lock_guard<std::mutex> lock(b.mu);
    b.spans.push_back(
        Span{p, b.worker.load(std::memory_order_relaxed), slot, ns, b.next_seq++});
  }
}

}  // namespace detail

void set_enabled(bool on) noexcept {
#ifdef PFAIR_PROF_TSC
  if (on && g_ns_per_tick.load(std::memory_order_relaxed) == 0.0) calibrate_tsc();
#endif
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_span_recording(bool on) noexcept {
  detail::g_spans.store(on, std::memory_order_relaxed);
}

void set_worker_index(std::int32_t index) noexcept {
  local_buf().worker.store(index, std::memory_order_relaxed);
}

Histogram sample_histogram() { return Histogram::exponential(32.0, 2.0, 26); }

std::vector<PhaseTotals> collect_totals() {
  std::vector<PhaseTotals> out(kPhaseCount);
  for (PhaseTotals& t : out) t.hist = sample_histogram();
  ProfState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (ThreadBuf& b : s.bufs) {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const PhaseCell& c = b.phases[i];
      const std::uint64_t count = c.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      out[i].count += count;
      out[i].total_ns += c.total_ns.load(std::memory_order_relaxed);
      const std::uint64_t mx = c.max_ns.load(std::memory_order_relaxed);
      if (mx > out[i].max_ns) out[i].max_ns = mx;
      // Rebuild the ns histogram from the lock-free bucket counts:
      // bucket j's lower edge 2^(j+4) lands exactly in bucket j again.
      if (const std::uint64_t n = c.buckets[0].load(std::memory_order_relaxed))
        out[i].hist.add(0.0, n);
      for (std::size_t j = 1; j + 1 < kBucketSlots; ++j) {
        if (const std::uint64_t n = c.buckets[j].load(std::memory_order_relaxed))
          out[i].hist.add(std::ldexp(32.0, static_cast<int>(j) - 1), n);
      }
      if (const std::uint64_t n =
              c.buckets[kBucketSlots - 1].load(std::memory_order_relaxed))
        out[i].hist.add(std::ldexp(32.0, 26), n);  // >= top edge: overflow
    }
  }
  return out;
}

std::vector<Span> collect_spans() {
  std::vector<Span> out;
  ProfState& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    for (ThreadBuf& b : s.bufs) {
      const std::lock_guard<std::mutex> block(b.mu);
      out.insert(out.end(), b.spans.begin(), b.spans.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.worker != b.worker) return a.worker < b.worker;
    return a.seq < b.seq;
  });
  return out;
}

void snapshot_into(MetricsRegistry& reg) {
  const std::vector<PhaseTotals> totals = collect_totals();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseTotals& t = totals[i];
    if (t.count == 0) continue;
    TimerStats ts;
    ts.count = t.count;
    ts.total_ns = t.total_ns;
    ts.max_ns = t.max_ns;
    ts.hist = t.hist;
    reg.record_timer(phase_name(static_cast<Phase>(i)), ts);
  }
}

void reset() {
  ProfState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  for (ThreadBuf& b : s.bufs) {
    for (PhaseCell& c : b.phases) {
      c.count.store(0, std::memory_order_relaxed);
      c.total_ns.store(0, std::memory_order_relaxed);
      c.max_ns.store(0, std::memory_order_relaxed);
      for (std::atomic<std::uint64_t>& n : c.buckets)
        n.store(0, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> block(b.mu);
    b.spans.clear();
    b.next_seq = 0;
  }
}

}  // namespace pfair::obs::prof
