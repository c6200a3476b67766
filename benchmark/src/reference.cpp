// The host speed reference: a fixed integer kernel owned by the benchmark,
// built with fixed flags (see CMakeLists.txt) and sharing no code with the
// library, so no change to the library can move it.
//
// On a shared host the speed of one core drifts by 10-40% over minutes as
// other tenants come and go.  Timed next to each round, this kernel slows
// down with the workloads: over 150 s in which a PD2 round drifted by
// +-11%, the ratio of round time to kernel time stayed within +-2%.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace bench {
namespace {

/// Median kernel time on the baseline host (benchmark/README.md), in ns.
constexpr double kNominalNs = 385000.0;

/// Random reads and writes over an L2-sized table, small sorts and integer
/// formatting: the mix of the serve path and the slot kernels.
std::uint64_t kernel() {
  static std::vector<std::uint64_t> table(1u << 15);
  Rng rng(42);
  for (std::uint64_t& x : table) x = rng.next();
  std::uint64_t acc = 0;
  std::vector<std::uint32_t> buf(512);
  std::string text;
  for (int rep = 0; rep < 6; ++rep) {
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t h = rng.next();
      const std::size_t k = h & (table.size() - 1);
      if ((table[k] & 1) != 0) {
        table[k] = table[k] * 3 + h;
      } else {
        acc += table[(k * 7 + 1) & (table.size() - 1)] >> 3;
      }
    }
    for (std::uint32_t& b : buf) b = static_cast<std::uint32_t>(rng.next());
    std::sort(buf.begin(), buf.end());
    text.clear();
    char num[24];
    for (const std::uint32_t b : buf) {
      const char* end = std::to_chars(num, num + sizeof num, b).ptr;
      text.append(num, static_cast<std::size_t>(end - num));
    }
    acc += buf[7] + text.size();
  }
  return acc;
}

}  // namespace

double host_slowdown() {
  static volatile std::uint64_t sink = 0;
  std::vector<double> t;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = now_ns();
    sink = sink + kernel();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(t)) / kNominalNs;
}

}  // namespace bench
