// Exact ΣU of a multiset of task weights e/p, summed in integers.
//
// The sum is an Int128 numerator N over L, the lcm of the periods added
// since the last rebuild.  Beside it a flat table sorted by period keeps,
// for each period p, its task count, its execution sum E_p and L/p, so
// add and sub are one table lookup and one multiply-add: no gcd runs per
// update.  A period new to the table costs one lcm step when it does not
// divide L, and a pass over the table when L grows.  A period whose last
// task leaves stays in the table (its count 0) until the next rebuild.
//
// Past int64.  When an lcm would pass int64, L is rebuilt from the
// periods some task still holds.  If that does not fit either, the sum is
// held as the fixed-point interval [Σ⌊E_p·2⁶⁴/p⌋, Σ⌈E_p·2⁶⁴/p⌉] (units of
// 2⁻⁶⁴), and each period whose last task leaves retries the rebuild.  So
// a sum is exact exactly when the lcm of its live periods fits int64,
// whatever order they came and went in: two sums over one multiset (the
// admission gate's and the simulator's) answer every comparison alike.
//
// Comparisons read a View: the sum with one member taken out and one
// task put in.  A view is exact when the lcm of the live periods and the
// new task's fits int64, and compares integer parts first, then
// remainders, so no product reaches 2¹²⁷.  Otherwise it is an interval
// (the sum's own past int64; else the exact part's fixed point and the
// new task's, one unit of 2⁻⁶⁴ wide each), and a bound inside it
// answers kUnknown.  A view costs one lookup, one gcd for a period that
// does not divide L, and, while stale periods keep L above the live
// periods' lcm, one pass over the table to find that lcm, kept until the
// live periods change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "util/math.h"

namespace pfair {

/// One task's weight e/p (e >= 0, 0 < p < 2⁶³); e == 0 stands for no task.
struct Weight {
  std::int64_t e = 0;
  std::int64_t p = 1;
};

class WeightSum {
 public:
  /// A reduced fraction num/den (den > 0): the value a sum renders.
  struct Fraction {
    Int128 num = 0;
    std::int64_t den = 1;
    friend bool operator==(const Fraction&, const Fraction&) = default;
    friend std::ostream& operator<<(std::ostream& os, const Fraction& f);
  };

  /// Where a sum lies against a bound.
  enum class Side : std::uint8_t {
    kWithin,   ///< at or below it
    kAbove,    ///< above it
    kUnknown,  ///< the interval holds the bound (past int64 only)
  };

  /// The sum with one member taken out and one task put in.
  class View {
   public:
    /// Against num/den, for num >= 0 and den > 0.
    [[nodiscard]] Side against(Int128 num, std::int64_t den) const noexcept;
    /// Against the integer k >= 0.
    [[nodiscard]] Side against(std::int64_t k) const noexcept { return against(k, 1); }
    /// Against a double bound as the Liu–Layland test reads it: the
    /// double of the reduced pair when exact, else the interval against
    /// the bound's exact value.
    [[nodiscard]] Side against_double(double bound) const noexcept;
    /// The reduced value; nullopt past int64.
    [[nodiscard]] std::optional<Fraction> fraction() const;

   private:
    friend class WeightSum;
    bool exact_ = true;
    Int128 num_ = 0;           ///< exact: the value is num_/den_
    std::int64_t den_ = 1;
    UInt128 lo_ = 0, hi_ = 0;  ///< else: within [lo_, hi_]·2⁻⁶⁴
  };

  /// Room format() needs: a 39-digit numerator, '/', a 19-digit denominator.
  static constexpr std::size_t kFormatSize = 64;

  /// Adds one task of weight e/p.
  void add(std::int64_t e, std::int64_t p);
  /// Removes one task of weight e/p; it must be a member.
  void sub(std::int64_t e, std::int64_t p);

  /// The sum − minus + plus (minus a member, or e == 0 for none).
  [[nodiscard]] View with(Weight plus, Weight minus = {}) const;

  /// True while the sum is held exactly (the lcm of its live periods fits int64).
  [[nodiscard]] bool exact() const noexcept { return exact_; }
  /// The reduced value (one gcd per change of the sum); nullopt past int64.
  [[nodiscard]] std::optional<Fraction> fraction() const;
  /// ⌊ΣU·10⁹⌋: the lower end of the interval past int64.
  [[nodiscard]] Int128 floor_billionths() const;
  /// "num/den", or "num" when den == 1, with the numerator in full; past
  /// int64 "~" and the interval's lower end to nine decimals, rounded down.
  [[nodiscard]] std::string_view format(char (&buf)[kFormatSize]) const;

  /// Equal values: both exact with one reduced value, or both past int64
  /// with one interval.
  friend bool operator==(const WeightSum& a, const WeightSum& b);

 private:
  struct Slot {
    std::int64_t count = 0;  ///< tasks at this period (0: stale, exact only)
    Int128 esum = 0;         ///< E_p, their execution sum
    std::int64_t scale = 0;  ///< exact: L/p
    UInt128 lo = 0;          ///< interval: ⌊E_p·2⁶⁴/p⌋
    bool inexact = false;    ///< interval: ⌈E_p·2⁶⁴/p⌉ = lo + 1
  };

  [[nodiscard]] std::size_t position(std::int64_t p) const noexcept;
  [[nodiscard]] const Slot* find(std::int64_t p) const noexcept;
  /// Moves slot i's execution sum by delta, with the running sum.
  void shift(std::size_t i, Int128 delta);
  /// Inserts an empty slot for the new period p and returns its index;
  /// grows L, rebuilds it or leaves the exact regime as p requires.
  std::size_t insert(std::int64_t p);
  /// lcm of the live periods and `extra` (0: none); nullopt past int64.
  [[nodiscard]] std::optional<std::int64_t> live_lcm(std::int64_t extra) const;
  /// Drops the stale slots and holds the sum exactly over L.
  void rebuild(std::int64_t lcm);
  /// Drops the stale slots and holds the sum as its interval.
  void to_interval();
  void drop_stale();
  /// Past int64: the interval of the sum − minus + plus, per period.
  [[nodiscard]] View interval_view(Weight plus, Weight minus) const;

  std::vector<std::int64_t> periods_;  ///< sorted; parallel to slots_
  std::vector<Slot> slots_;
  bool exact_ = true;
  Int128 num_ = 0;          ///< exact: the sum is num_/lcm_
  std::int64_t lcm_ = 1;    ///< exact: L
  std::size_t stale_ = 0;   ///< exact: slots with count 0
  UInt128 lo_ = 0;          ///< interval: Σ lo
  std::size_t inexact_ = 0; ///< interval: slots with inexact set (Σhi = lo_ + inexact_)
  /// fraction() of the current value: a line rendered after a request
  /// that changed nothing (a refusal, a query) reduces nothing.
  mutable std::optional<Fraction> reduced_;
  /// exact: live_lcm(0) once with() needed it (0: not yet), so a run of
  /// views past L pays its pass once per change of the live periods.
  mutable std::int64_t live_lcm_memo_ = 0;
};

}  // namespace pfair
