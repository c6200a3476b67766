// Shared helpers for the figure-regeneration harnesses.
// Flag parsing / JSON reporting live in engine/harness.h; scheduler
// comparison loops in engine/compare.h.
#pragma once

#include <chrono>

namespace pfair::bench {

/// Wall-clock stopwatch for the `# wall ...` stdout footer of the
/// parallel sweeps.  Timing is only ever printed to stdout, never put in
/// the JSON report — the report must stay byte-identical across --jobs
/// values.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pfair::bench
