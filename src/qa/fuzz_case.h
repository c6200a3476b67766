// The unit of fuzzing: one fully materialised, replayable test case.
//
// A FuzzCase carries everything needed to re-run it — scheduler-facing
// inputs (processors, horizon, task set, task kind, dynamic join/leave
// script) plus its provenance (campaign seed, case index, generator
// profile).  Cases are pure data: generation (qa/gen.h), checking
// (qa/oracle.h), and minimisation (qa/shrink.h) all operate on this
// struct, so a failure found by a 2000-case campaign and the one-line
// gtest repro it shrinks to are literally the same object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/task.h"
#include "obs/json.h"
#include "util/types.h"

namespace pfair::qa {

/// Generator bias profile (see qa/gen.h for what each one draws).
enum class Profile : std::uint8_t {
  kUniform,     ///< e, p uniform with 1 <= e <= p <= max_period
  kBimodal,     ///< mix of heavy (wt >= 1/2) and light (e = 1) tasks
  kHeavy,       ///< mostly u_max-heavy tasks; often filled to wt = M
  kHarmonic,    ///< periods restricted to powers of two (harmonic chains)
  kDegenerate,  ///< boundary weights: 1/1, 1/q, (q-1)/q, q/q
  kDynamic,     ///< moderate base load plus a join/leave script
  kStorm,       ///< light base load plus a dense join/leave storm (the
                ///< pfaird admission-path stress shape)
};

[[nodiscard]] const char* profile_name(Profile p) noexcept;
/// All profiles in generation-cycle order.
[[nodiscard]] const std::vector<Profile>& all_profiles();

/// A scripted dynamic join: `task` attempts to join at time `at` (> 0).
/// Joins that would violate Eq. (2) are rejected by the simulator at
/// run time; the script records the attempt either way.
struct JoinEvent {
  Time at = 1;
  Task task;
};

/// A scripted departure request: initial task `task` (index into
/// FuzzCase::tasks) calls request_leave() at time `at`.
struct LeaveEvent {
  Time at = 1;
  TaskId task = 0;
};

struct FuzzCase {
  std::uint64_t seed = 0;   ///< campaign seed this case was derived from
  std::uint64_t index = 0;  ///< case number; (seed, index) replays the case
  Profile profile = Profile::kUniform;
  TaskKind kind = TaskKind::kPeriodic;  ///< periodic or early-release
  int processors = 1;
  Time horizon = 64;
  TaskSet tasks;
  std::vector<JoinEvent> joins;
  std::vector<LeaveEvent> leaves;

  [[nodiscard]] bool has_dynamics() const noexcept {
    return !joins.empty() || !leaves.empty();
  }
};

/// Structural validation; empty string when the case is well-formed,
/// else the first problem found (exact messages are part of the tested
/// contract — see tests/qa/oracle_test.cpp):
///   "case has no tasks"
///   "processors must be >= 1 (got 0)"
///   "horizon must be >= 1 (got 0)"
///   "task 2 is invalid (execution 0, period 4)"
///   "total weight 5/2 exceeds 2 processors"
///   "join 0 must be at time >= 1 (got 0)"
///   "leave 1 references unknown task 7"
[[nodiscard]] std::string validate(const FuzzCase& c);

/// JSON encoding of a case (obs::json value; dump() is canonical, so
/// serialised campaigns are byte-stable).
[[nodiscard]] obs::json::Value case_to_json(const FuzzCase& c);

/// Inverse of case_to_json; false when required members are missing or
/// malformed (out remains unspecified).
[[nodiscard]] bool case_from_json(const obs::json::Value& v, FuzzCase& out);

/// A ready-to-paste gtest regression case reconstructing this case and
/// asserting every applicable oracle passes (the promotion path for
/// shrunk repros — see EXPERIMENTS.md "Fuzzing & invariant oracles").
[[nodiscard]] std::string case_to_gtest(const FuzzCase& c);

}  // namespace pfair::qa
