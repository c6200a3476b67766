// Measurement plumbing shared by every pfair_bench workload: the clock,
// a seeded input generator owned by the benchmark (so inputs never move
// when the library's own Rng does), an order-sensitive digest, robust
// statistics, the per-layer span recorder and the run report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's input stream, stable across library changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
  }
  /// Uniform in [0, 1).
  double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Independent stream `index` of `seed` (a session, a task set, ...).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t index) noexcept {
  Rng r(seed ^ (0xD1B54A32D192ED03ull * (index + 1)));
  return r.next();
}

/// FNV-1a over 64-bit words; the decision / metrics-row digest.
class Digest {
 public:
  void add(std::int64_t v) noexcept {
    auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= u & 0xFF;
      h_ *= 0x100000001B3ull;
      u >>= 8;
    }
  }
  void add(std::string_view s) noexcept {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
    add(static_cast<std::int64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Nearest-rank quantile of `v` (copied and sorted); 0 for empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Timings of work that repeats identically every round, by position in
/// the round (a request, a session, a task set).  A position's value is its
/// median over rounds, so a host stall that slows fewer than half of the
/// rounds does not move it; quantiles are then taken over positions.  At
/// most kKept rounds are kept, spread evenly over the run: when the store
/// fills, every other kept round is dropped and only every second later
/// round is kept.
class RoundSamples {
 public:
  void add(std::size_t pos, double x) {
    if (pos >= by_pos_.size()) by_pos_.resize(pos + 1);
    Ring& r = by_pos_[pos];
    if (r.added++ % r.stride != 0) return;
    r.kept.push_back(static_cast<float>(x));
    if (r.kept.size() == kKept) {
      for (std::size_t i = 0; i < kKept / 2; ++i) r.kept[i] = r.kept[2 * i];
      r.kept.resize(kKept / 2);
      r.stride *= 2;
    }
  }
  [[nodiscard]] std::vector<double> medians() const {
    std::vector<double> out;
    for (const Ring& r : by_pos_)
      out.push_back(median(std::vector<double>(r.kept.begin(), r.kept.end())));
    return out;
  }
  [[nodiscard]] double sum_of_medians() const {
    double total = 0.0;
    for (const double m : medians()) total += m;
    return total;
  }

 private:
  static constexpr std::size_t kKept = 32;
  struct Ring {
    std::vector<float> kept;
    std::size_t added = 0;
    std::size_t stride = 1;
  };
  std::vector<Ring> by_pos_;
};

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Divisors of 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13 within [lo, hi].  Every
/// workload draws its periods here, so exact utilization sums share the
/// denominator 720720 and stay representable.
inline constexpr std::int64_t kBasePeriod = 720720;
[[nodiscard]] std::vector<std::int64_t> base_divisors(std::int64_t lo, std::int64_t hi);

/// A task drawn the way every workload draws them: a period from
/// `periods`, then a utilization uniform in [u_lo, u_lo + u_span), rounded
/// to whole quanta within [1, period].
struct TaskDraw {
  std::int64_t execution, period;
};
[[nodiscard]] TaskDraw draw_task(Rng& rng, const std::vector<std::int64_t>& periods,
                                 double u_lo, double u_span);

// ---------------------------------------------------------------------------
// Per-layer tracing from outside the program: every span is one call into a
// public library function, timed around the call site.  Spans never nest,
// so a layer's self time is its span time; the PD2 kernel phases nested
// inside run_until come from obs::prof and are subtracted by the caller.

enum class Layer : std::uint8_t {
  kParse, kAdvanceTo, kTier0, kTier1, kTier2Hit, kTier2Miss, kCommit,
  kScheduleRelease, kPrewarm, kSimJoin, kSimAdmit, kSimRequestLeave, kSimRunUntil,
  kJsonWrite, kDaemonCtor,
  kPd2Admit, kPd2FirstRun, kPd2Run, kBfAdmit, kBfFirstRun, kBfRun,
  kRunAdmit, kRunFirstRun, kRunRun,
  kPd2PhaseA, kPd2Merge, kPd2Advance, kPd2Assign, kPd2Release,
  kPd2LegacyMissSweep, kPd2LegacySelect,
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer l) noexcept;

class Tracer {
 public:
  struct Stat {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };

  /// Adds one finished span.  Spans also go to the Chrome-trace buffer
  /// while capture() is on and the buffer has room.
  void record(Layer l, std::uint64_t start, std::uint64_t end) {
    Stat& s = stats_[static_cast<std::size_t>(l)];
    s.ns += end - start;
    ++s.calls;
    if (capturing_ && events_.size() < kMaxEvents) events_.push_back({l, start, end});
  }
  /// Adds time measured elsewhere (obs::prof phase totals).
  void add(Layer l, std::uint64_t ns, std::uint64_t calls) {
    Stat& s = stats_[static_cast<std::size_t>(l)];
    s.ns += ns;
    s.calls += calls;
  }
  /// Moves `ns` of self time out of `from` (a parent span whose nested
  /// phases were measured separately).
  void subtract(Layer from, std::uint64_t ns) {
    Stat& s = stats_[static_cast<std::size_t>(from)];
    s.ns = s.ns > ns ? s.ns - ns : 0;
  }

  [[nodiscard]] const Stat& stat(Layer l) const { return stats_[static_cast<std::size_t>(l)]; }
  [[nodiscard]] std::uint64_t total_ns() const;
  void set_capture(bool on) noexcept { capturing_ = on; }

  /// Chrome-trace JSON: one thread track per layer, one complete ("X")
  /// event per captured span.  Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    Layer layer;
    std::uint64_t start, end;
  };
  static constexpr std::size_t kMaxEvents = 200000;
  Stat stats_[kLayerCount]{};
  std::vector<Event> events_;
  bool capturing_ = false;
};

/// Times one call into a library layer.
template <class F>
decltype(auto) timed(Tracer& tr, Layer l, F&& f) {
  const std::uint64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    tr.record(l, t0, now_ns());
  } else {
    decltype(auto) r = f();
    tr.record(l, t0, now_ns());
    return r;
  }
}

// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness failures, one line each
  std::vector<std::string> notes;   ///< informational "# ..." lines

  void fail(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_file;     ///< Chrome-trace output (traced runs only)
  std::string expect_digest;  ///< stored decision digest for this seed, if any
  bool smoke = false;         ///< tiny inputs, short budget, every check on
};

/// Adds `<layer>.ns` (mean self ns per call) and `<layer>.calls` (calls per
/// round) for every layer, remainder.share (the part of the traced time no
/// span covers) and trace.overhead (traced over untraced time per round).
void add_layer_metrics(Report& rep, const Tracer& tr, std::uint64_t rounds,
                       std::uint64_t traced_ns, double overhead);

/// How much slower this host runs the benchmark's fixed reference kernel
/// right now than the baseline host did (1.0 = baseline speed).  Timings
/// are divided by it and rates multiplied, so the end-to-end metrics read
/// in baseline-host time; see reference.cpp.
[[nodiscard]] double host_slowdown();

/// Set-up is repeated this often per run and its median reported.
inline constexpr int kSetupRepeats = 31;

/// Median time of `rounds` repetitions of `fn` after one untimed warm-up,
/// in baseline-host seconds — the set-up time.
template <class F>
double median_seconds(int rounds, F&& fn) {
  fn();
  const double slow = host_slowdown();
  std::vector<double> t;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(t)) / slow;
}

}  // namespace bench
