#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace bench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

double peak_rss_mb() {
  // VmHWM belongs to this program image.  getrusage's ru_maxrss is kept
  // across exec, so under a launcher it can report the launcher's peak.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::int64_t> base_divisors(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (std::int64_t d = std::max<std::int64_t>(lo, 1); d <= hi; ++d)
    if (kBasePeriod % d == 0) out.push_back(d);
  return out;
}

TaskDraw draw_task(Rng& rng, const std::vector<std::int64_t>& periods, double u_lo,
                   double u_span) {
  const auto last = static_cast<std::int64_t>(periods.size()) - 1;
  const std::int64_t p = periods[static_cast<std::size_t>(rng.uniform(0, last))];
  const double u = u_lo + u_span * rng.unit();
  const auto e = static_cast<std::int64_t>(static_cast<double>(p) * u + 0.5);
  return {std::clamp<std::int64_t>(e, 1, p), p};
}

const char* layer_name(Layer l) noexcept {
  static constexpr const char* kNames[kLayerCount] = {
      "request.parse",        "admission.advance_to",     "admission.tier0",
      "admission.tier1",      "admission.tier2_hit",      "admission.tier2_miss",
      "admission.commit",     "admission.schedule_release", "admission.prewarm",
      "sim.join",             "sim.admit",                "sim.request_leave",
      "sim.run_until",        "json.write",               "daemon.ctor",
      "pd2.admit",            "pd2.first_run_until",      "pd2.run_until",
      "bf.admit",             "bf.first_run_until",       "bf.run_until",
      "run.admit",            "run.first_run_until",      "run.run_until",
      "pd2.kernel.phase_a",   "pd2.kernel.merge",         "pd2.kernel.advance",
      "pd2.assign",           "pd2.release",              "pd2.legacy.miss_sweep",
      "pd2.legacy.select",
  };
  return kNames[static_cast<std::size_t>(l)];
}

std::uint64_t Tracer::total_ns() const {
  std::uint64_t t = 0;
  for (const Stat& s : stats_) t += s.ns;
  return t;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", l + 1, layer_name(static_cast<Layer>(l)));
    first = false;
  }
  const std::uint64_t origin = events_.empty() ? 0 : events_.front().start;
  for (const Event& e : events_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 layer_name(e.layer), static_cast<std::size_t>(e.layer) + 1,
                 static_cast<double>(e.start - origin) * 1e-3,
                 static_cast<double>(e.end - e.start) * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void add_layer_metrics(Report& rep, const Tracer& tr, std::uint64_t rounds,
                       std::uint64_t traced_ns, double overhead) {
  const double r = static_cast<double>(std::max<std::uint64_t>(rounds, 1));
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    const Tracer::Stat& s = tr.stat(l);
    const std::string name = layer_name(l);
    rep.metric(name + ".ns",
               s.calls > 0 ? static_cast<double>(s.ns) / static_cast<double>(s.calls) : 0.0,
               "ns");
    rep.metric(name + ".calls", static_cast<double>(s.calls) / r, "count");
  }
  const double e2e = static_cast<double>(traced_ns);
  const double self = static_cast<double>(tr.total_ns());
  rep.metric("remainder.share", e2e > 0 ? (e2e - self) / e2e : 0.0, "ratio");
  rep.metric("trace.overhead", overhead, "ratio");
}

}  // namespace bench
