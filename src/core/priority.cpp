#include "core/priority.h"

#include <atomic>

namespace pfair {

namespace {
// Relaxed atomic: campaigns read it concurrently from worker threads,
// but it is only written while no simulation is running.  The unflipped
// fast path costs one predictable not-taken branch per comparison.
std::atomic<bool> g_pd2_b_bit_flipped{false};
}  // namespace

void set_pd2_b_bit_flip_for_test(bool flipped) noexcept {
  g_pd2_b_bit_flipped.store(flipped, std::memory_order_relaxed);
}

bool pd2_b_bit_flip_for_test() noexcept {
  return g_pd2_b_bit_flipped.load(std::memory_order_relaxed);
}

const char* algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kPD2:
      return "PD2";
    case Algorithm::kPF:
      return "PF";
    case Algorithm::kPD:
      return "PD";
    case Algorithm::kEPDF:
      return "EPDF";
    case Algorithm::kWRR:
      return "WRR";
  }
  return "?";
}

namespace {

// --- packed-key layouts --------------------------------------------------
//
// A PackedKey orders lexicographically as the 128-bit value hi:lo, so a
// comparator chain "compare A asc, then B asc, then C asc" packs as the
// bit-concatenation [A][B][C] (MSB first).  Descending fields store
// their complement against the field mask ("¬x" below): later group
// deadlines and set b-bits must win, and a complemented field turns
// "later is higher priority" back into plain ascending integer order.
//
//   PD2:  [deadline:48][¬b:1][¬group_dl*:47][task:32]
//   PD:   [deadline:38][¬b:1][¬group_dl*:37][¬wrank:33][task:19]
//   EPDF: [deadline:64][task:32 in lo]
//
// group_dl* is the group deadline as the comparator actually uses it:
// zero unless b = 1 (the legacy chain only consults group_dl on a b = 1
// tie, so packing the raw value for b = 0 refs would invent an ordering
// the reference comparator does not have).
//
// PD's weight tie-break (heavier first, exact cross-multiplied
// comparison of e/p) packs as ¬wrank with wrank = floor(e·2^32 / p):
// for denominators p <= 2^16, two distinct weights differ by at least
// 1/2^32, so the scaled floor preserves strict order and equal weights
// collapse to equal ranks — the embedding is exact, not approximate.
//
// Fields that do not fit their width (huge absolute times, p > 2^16,
// task ids beyond 2^19 for PD) cannot be packed exactly; the ref then
// keeps key_alg = kKeyNone and every comparison falls back to the
// legacy chain, which is always correct.

[[nodiscard]] constexpr bool fits(std::int64_t v, int bits) noexcept {
  return v >= 0 && v < (std::int64_t{1} << bits);
}

// Packs PD2's (deadline asc, b desc, group_dl desc on b = 1, task asc).
[[nodiscard]] bool pack_pd2(SubtaskRef& s) noexcept {
  const std::int64_t gdl = s.b == 1 ? s.group_dl : 0;
  if (!fits(s.deadline, 48) || !fits(gdl, 47)) return false;
  const std::uint64_t d = static_cast<std::uint64_t>(s.deadline);
  const std::uint64_t not_b = s.b == 1 ? 0u : 1u;
  const std::uint64_t not_g = ((std::uint64_t{1} << 47) - 1) - static_cast<std::uint64_t>(gdl);
  // hi = [deadline:48][¬b:1][¬g top 15], lo = [¬g low 32][task:32].
  s.key.hi = (d << 16) | (not_b << 15) | (not_g >> 32);
  s.key.lo = (not_g << 32) | s.task;
  return true;
}

// Packs PD's (PD2 chain, then weight desc, then task asc).
[[nodiscard]] bool pack_pd(SubtaskRef& s) noexcept {
  const std::int64_t gdl = s.b == 1 ? s.group_dl : 0;
  if (!fits(s.deadline, 38) || !fits(gdl, 37)) return false;
  if (s.p > (std::int64_t{1} << 16) || s.task >= (std::uint32_t{1} << 19)) return false;
  const std::uint64_t d = static_cast<std::uint64_t>(s.deadline);
  const std::uint64_t not_b = s.b == 1 ? 0u : 1u;
  const std::uint64_t not_g = ((std::uint64_t{1} << 37) - 1) - static_cast<std::uint64_t>(gdl);
  const std::uint64_t wrank = (static_cast<std::uint64_t>(s.e) << 32) /
                              static_cast<std::uint64_t>(s.p);  // <= 2^32
  const std::uint64_t not_w = ((std::uint64_t{1} << 33) - 1) - wrank;
  // hi = [deadline:38][¬b:1][¬g top 25], lo = [¬g low 12][¬w:33][task:19].
  s.key.hi = (d << 26) | (not_b << 25) | (not_g >> 12);
  s.key.lo = (not_g << 52) | (not_w << 19) | s.task;
  return true;
}

// Packs EPDF's (deadline asc, task asc).
[[nodiscard]] bool pack_epdf(SubtaskRef& s) noexcept {
  if (s.deadline < 0) return false;
  s.key.hi = static_cast<std::uint64_t>(s.deadline);
  s.key.lo = s.task;
  return true;
}

}  // namespace

// Fills the packed key (or kKeyNone) for a ref whose other fields are set.
void pack_subtask_ref(SubtaskRef& s, Algorithm alg) noexcept {
  bool packed = false;
  switch (alg) {
    case Algorithm::kPD2:
      packed = pack_pd2(s);
      break;
    case Algorithm::kPD:
      packed = pack_pd(s);
      break;
    case Algorithm::kEPDF:
      packed = pack_epdf(s);
      break;
    case Algorithm::kPF:   // PF ties need the recursive chain comparison
    case Algorithm::kWRR:  // WRR has no subtask priorities
      break;
  }
  s.key_alg = packed ? static_cast<std::uint8_t>(alg) : kKeyNone;
}

SubtaskRef make_subtask_ref(TaskId task, std::int64_t e, std::int64_t p, SubtaskIndex i,
                            Time offset, Algorithm alg) noexcept {
  SubtaskWindows w;
  w.release = subtask_release(e, p, i);
  w.deadline = subtask_deadline(e, p, i);
  w.b = b_bit(e, p, i);
  w.group_dl = is_heavy(e, p) ? group_deadline(e, p, i) : 0;
  return make_subtask_ref(task, e, p, i, offset, w, alg);
}

SubtaskRef make_subtask_ref(TaskId task, std::int64_t e, std::int64_t p, SubtaskIndex i,
                            Time offset, const SubtaskWindows& w, Algorithm alg) noexcept {
  SubtaskRef s;
  s.task = task;
  s.index = i;
  s.e = e;
  s.p = p;
  s.offset = offset;
  s.release = offset + w.release;
  s.deadline = offset + w.deadline;
  s.b = w.b;
  // Light tasks keep group_dl = 0 (not offset + 0): the comparators treat
  // zero as "no group deadline".
  s.group_dl = w.group_dl == 0 ? 0 : offset + w.group_dl;
  pack_subtask_ref(s, alg);
  return s;
}

bool pd2_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.b != b.b) {
    if (g_pd2_b_bit_flipped.load(std::memory_order_relaxed)) [[unlikely]] {
      return a.b < b.b;  // injected bug: prefers b = 0 (see priority.h)
    }
    return a.b > b.b;
  }
  if (a.b == 1 && a.group_dl != b.group_dl) return a.group_dl > b.group_dl;
  return a.task < b.task;
}

bool epdf_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.task < b.task;
}

bool pd_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.b != b.b) return a.b > b.b;
  if (a.b == 1 && a.group_dl != b.group_dl) return a.group_dl > b.group_dl;
  // PD's historical extra tie-breaks resolved weight comparisons in
  // constant time; we keep the same effect: heavier task first (compare
  // e_a/p_a vs e_b/p_b by exact cross multiplication, which passes
  // int64 for periods near 9e15), then stable id.
  if (ratio_less(b.e, b.p, a.e, a.p)) return true;
  if (ratio_less(a.e, a.p, b.e, b.p)) return false;
  return a.task < b.task;
}

bool pf_higher_priority(const SubtaskRef& a, const SubtaskRef& b) noexcept {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.b != b.b) return a.b > b.b;
  if (a.b == 0) return a.task < b.task;  // both b = 0: genuine tie
  // Both b = 1 with equal deadlines: compare successor chains
  // lexicographically by (deadline, b-bit) until they diverge or a
  // subtask with b = 0 is reached.  Chains of two tasks either diverge
  // within lcm(p_a, p_b) slots or the tasks have equal weight and
  // perpetually aligned windows (a true tie); capping at p_a + p_b
  // steps is enough to distinguish all diverging cases because window
  // patterns repeat with period e (one job) in subtask index.
  const SubtaskIndex cap = a.e + b.e + 2;
  for (SubtaskIndex k = 1; k <= cap; ++k) {
    const Time da = a.offset + subtask_deadline(a.e, a.p, a.index + k);
    const Time db = b.offset + subtask_deadline(b.e, b.p, b.index + k);
    if (da != db) return da < db;
    const int ba = b_bit(a.e, a.p, a.index + k);
    const int bb = b_bit(b.e, b.p, b.index + k);
    if (ba != bb) return ba > bb;
    if (ba == 0) break;  // both chains end a cascade here: tie
  }
  return a.task < b.task;
}

}  // namespace pfair
