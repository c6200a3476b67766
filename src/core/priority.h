// Subtask priority rules: PD2, PF, PD (paper Sec. 2).
//
// All three optimal Pfair algorithms order subtasks earliest-pseudo-
// deadline-first and differ only in tie-breaking:
//
//   PF  [Baruah et al. 96]: b-bit, then lexicographic comparison of the
//        successor subtasks' (deadline, b-bit) chains.
//   PD  [Baruah, Gehrke, Plaxton 95]: a constant-time refinement of PF.
//        We implement it as PD2's rules plus further deterministic
//        tie-breaks (heavier weight first, then task id).  Any
//        refinement of PD2's rules is optimal, since PD2's rules alone
//        are sufficient for optimality [Srinivasan & Anderson 02].
//   PD2 [Anderson & Srinivasan 00]: b-bit, then *later* group deadline.
#pragma once

#include <cstdint>

#include "core/windows.h"
#include "util/types.h"

namespace pfair {

/// Which priority rule a scheduler uses.
enum class Algorithm : std::uint8_t { kPD2, kPF, kPD, kEPDF, kWRR };

[[nodiscard]] const char* algorithm_name(Algorithm a) noexcept;

/// A 128-bit totally ordered priority key, compared lexicographically as
/// (hi, lo).  Packing a comparator's whole decision chain into one key
/// turns the 4-branch tie-break cascade into a single two-word integer
/// compare — the dominant operation of every heap sift on the simulator
/// hot path.  Layouts are algorithm-specific (see priority.cpp); a key
/// is only meaningful against keys packed for the same algorithm.
struct PackedKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] friend constexpr bool operator<(const PackedKey& a,
                                                const PackedKey& b) noexcept {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
  [[nodiscard]] friend constexpr bool operator==(const PackedKey& a,
                                                 const PackedKey& b) noexcept = default;
};

/// Sentinel marking SubtaskRef::key as "no exact packed key" (the ref
/// falls back to the legacy comparator chain).
inline constexpr std::uint8_t kKeyNone = 0xff;

/// A schedulable subtask instance in the ready queue.  Carries the task
/// parameters so comparators are self-contained (PF recursion needs
/// them), plus cached absolute timing and the precomputed priority key.
struct SubtaskRef {
  TaskId task = kNoTask;
  SubtaskIndex index = 1;   ///< i (1-based within the task's subtask chain)
  std::int64_t e = 1;       ///< task execution cost (quanta)
  std::int64_t p = 1;       ///< task period (quanta)
  Time offset = 0;          ///< absolute shift of this subtask's windows (IS θ)
  Time release = 0;         ///< absolute pseudo-release offset + r(T_i)
  Time deadline = 1;        ///< absolute pseudo-deadline offset + d(T_i)
  int b = 0;                ///< b-bit
  Time group_dl = 0;        ///< absolute group deadline (0 for light tasks)
  PackedKey key;            ///< precomputed priority key (see key_alg)
  std::uint8_t key_alg = kKeyNone;  ///< Algorithm the key was packed for,
                                    ///< or kKeyNone when no exact key fits
};

/// Builds a SubtaskRef with all derived fields filled in, including the
/// packed priority key for `alg` when every field fits the key layout
/// exactly (key_alg records which; kKeyNone means the comparators use
/// the legacy tie-break chain — always correct, just slower).  PF and
/// WRR never pack: PF ties need the recursive successor-chain
/// comparison, WRR has no subtask priorities.
[[nodiscard]] SubtaskRef make_subtask_ref(TaskId task, std::int64_t e, std::int64_t p,
                                          SubtaskIndex i, Time offset,
                                          Algorithm alg = Algorithm::kPD2) noexcept;

/// Offset-relative window of one subtask, precomputed by the caller
/// (e.g. by a WindowCursor, which derives them without divisions).
/// group_dl is 0 for light tasks, otherwise the relative group deadline.
struct SubtaskWindows {
  Time release = 0;
  Time deadline = 1;
  int b = 0;
  Time group_dl = 0;
};

/// make_subtask_ref with the window arithmetic already done.  Produces a
/// ref bit-identical to the closed-form overload above for matching
/// (e, p, i, offset, alg) — the simulator's cursor fast path asserts
/// exactly that in debug builds.
[[nodiscard]] SubtaskRef make_subtask_ref(TaskId task, std::int64_t e, std::int64_t p,
                                          SubtaskIndex i, Time offset,
                                          const SubtaskWindows& w, Algorithm alg) noexcept;

/// Recomputes s.key / s.key_alg from the ordering fields already in `s`
/// (the in-place counterpart of make_subtask_ref's packing step, for
/// callers that mutate a ref's windows instead of rebuilding it).
void pack_subtask_ref(SubtaskRef& s, Algorithm alg) noexcept;

/// Strict "higher priority than" under PD2: earlier deadline; then b = 1
/// beats b = 0; then (both b = 1) later group deadline; then task id.
[[nodiscard]] bool pd2_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept;

/// Test-only fault injection: when set, pd2_higher_priority resolves
/// deadline ties toward b = 0 instead of b = 1 — a deliberately wrong
/// PD2 that the qa fuzzing layer must catch and shrink (the end-to-end
/// self-test of the oracle/shrinker pipeline; see qa/campaign.h).  PF
/// and PD are unaffected, so the differential oracle sees the optimal
/// algorithms disagree.  Never set outside tests or `pfair_fuzz
/// --inject-pd2-b-bit-flip`.
void set_pd2_b_bit_flip_for_test(bool flipped) noexcept;
[[nodiscard]] bool pd2_b_bit_flip_for_test() noexcept;

/// RAII guard around the flip flag for exception-safe tests.
class ScopedPd2BBitFlip {
 public:
  ScopedPd2BBitFlip() noexcept { set_pd2_b_bit_flip_for_test(true); }
  ~ScopedPd2BBitFlip() { set_pd2_b_bit_flip_for_test(false); }
  ScopedPd2BBitFlip(const ScopedPd2BBitFlip&) = delete;
  ScopedPd2BBitFlip& operator=(const ScopedPd2BBitFlip&) = delete;
};

/// Strict "higher priority than" under PF (lexicographic successor
/// comparison, capped — see .cpp).
[[nodiscard]] bool pf_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept;

/// Strict "higher priority than" under PD (PD2 rules + weight + id).
[[nodiscard]] bool pd_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept;

/// Earliest-pseudo-deadline-first with *no* tie-breaks beyond task id.
/// Not optimal (used as an ablation baseline showing the tie-breaks
/// matter).
[[nodiscard]] bool epdf_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept;

/// Comparator functor selecting one of the rules at construction; usable
/// as the Less parameter of BinaryHeap.  When both operands carry a
/// packed key for this comparator's algorithm, the comparison is a
/// single PackedKey compare; the packing in priority.cpp guarantees that
/// path returns exactly what the legacy chain below would, so mixing
/// keyed and keyless refs stays a consistent strict weak ordering.
class SubtaskPriority {
 public:
  explicit SubtaskPriority(Algorithm alg = Algorithm::kPD2) noexcept : alg_(alg) {}

  [[nodiscard]] bool operator()(const SubtaskRef& a, const SubtaskRef& b) const noexcept {
    if (a.key_alg == static_cast<std::uint8_t>(alg_) &&
        b.key_alg == static_cast<std::uint8_t>(alg_)) {
      if (alg_ != Algorithm::kPD2 || !pd2_b_bit_flip_for_test()) [[likely]] {
        return a.key < b.key;
      }
    }
    return compare_legacy(a, b);
  }

  /// The pre-packed-key comparator chain (the reference semantics the
  /// packed path must reproduce bit-exactly; tests/core/priority_test.cpp
  /// checks the two agree on random keyed and keyless refs).
  [[nodiscard]] bool compare_legacy(const SubtaskRef& a, const SubtaskRef& b) const noexcept {
    switch (alg_) {
      case Algorithm::kPF:
        return pf_higher_priority(a, b);
      case Algorithm::kPD:
        return pd_higher_priority(a, b);
      case Algorithm::kEPDF:
        return epdf_higher_priority(a, b);
      case Algorithm::kWRR:  // WRR has no subtask priorities; fall through
      case Algorithm::kPD2:
        return pd2_higher_priority(a, b);
    }
    return pd2_higher_priority(a, b);
  }

  [[nodiscard]] Algorithm algorithm() const noexcept { return alg_; }

 private:
  Algorithm alg_;
};

}  // namespace pfair

// The ready-queue heap specialization (sifts on PackedKey instead of
// whole SubtaskRefs).  Included here, after the types it specializes
// over, so no translation unit can instantiate the primary
// BinaryHeap<SubtaskRef, SubtaskPriority> and split the ODR.
#include "core/subtask_heap.h"  // IWYU pragma: keep
