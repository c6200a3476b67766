// Biased random case generation for the fuzzing campaigns.
//
// Coverage comes from bias, not volume: a uniform draw over (e, p)
// almost never produces the configurations the Pfair proofs sweat over
// — weight-1 tasks, wt = 1/2 boundaries, harmonic period chains, full
// utilization, dynamic joins mid-cascade.  Each Profile (qa/fuzz_case.h)
// over-samples one of those regions; a campaign cycles through all of
// them by default.
//
// Determinism contract: make_case(i) is a pure function of the
// generator's (config, seed) and i, built on the counter-based
// Rng::stream — no generator state is consumed, so cases can be built
// in any order on any thread, and a failing (seed, case) pair printed
// by pfair_fuzz replays to the identical case (and, since the
// simulators are deterministic, the identical trace) anywhere.
#pragma once

#include <cstdint>
#include <optional>

#include "qa/fuzz_case.h"
#include "util/rng.h"

namespace pfair::qa {

struct GenConfig {
  int min_processors = 1;
  int max_processors = 4;
  std::size_t max_tasks = 10;
  std::int64_t max_period = 16;  ///< also bounds join-script task periods
  Time min_horizon = 64;
  Time max_horizon = 320;
  std::optional<Profile> only_profile;  ///< pin every case to one profile
  bool allow_early_release = true;      ///< mix in ERfair cases (1 in 4)
};

class TaskSetGen {
 public:
  TaskSetGen(GenConfig config, std::uint64_t seed) noexcept
      : config_(config), seed_(seed) {}

  [[nodiscard]] const GenConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Builds case `index`; pure in (config, seed, index).  The result is
  /// always well-formed: validate(result).empty() and the task set is
  /// Pfair-feasible on the case's processor count.
  [[nodiscard]] FuzzCase make_case(std::uint64_t index) const;

 private:
  GenConfig config_;
  std::uint64_t seed_;
};

}  // namespace pfair::qa
