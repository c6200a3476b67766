#include "util/weight_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pfair {
namespace {

using Side = WeightSum::Side;

// --- the reference: exact sums over unbounded integers ----------------

/// Unsigned big integer (little-endian 32-bit limbs), just enough to
/// hold Σ E_p/p over the product of the periods.
class Big {
 public:
  Big() = default;
  explicit Big(UInt128 v) {
    for (; v > 0; v >>= 32) limbs_.push_back(static_cast<std::uint32_t>(v));
  }

  friend Big operator+(const Big& a, const Big& b) {
    Big out;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < std::max(a.limbs_.size(), b.limbs_.size()) || carry; ++i) {
      const std::uint64_t s = carry + a.limb(i) + b.limb(i);
      out.limbs_.push_back(static_cast<std::uint32_t>(s));
      carry = s >> 32;
    }
    out.trim();
    return out;
  }

  friend Big operator*(const Big& a, const Big& b) {
    Big out;
    out.limbs_.assign(a.limbs_.size() + b.limbs_.size() + 1, 0);
    for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < b.limbs_.size() || carry; ++j) {
        const std::uint64_t cur = out.limbs_[i + j] + carry +
                                  static_cast<std::uint64_t>(a.limbs_[i]) * b.limb(j);
        out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
        carry = cur >> 32;
      }
    }
    out.trim();
    return out;
  }

  friend std::strong_ordering operator<=>(const Big& a, const Big& b) {
    if (a.limbs_.size() != b.limbs_.size()) return a.limbs_.size() <=> b.limbs_.size();
    for (std::size_t i = a.limbs_.size(); i-- > 0;)
      if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
    return std::strong_ordering::equal;
  }
  friend bool operator==(const Big& a, const Big& b) { return (a <=> b) == 0; }

 private:
  [[nodiscard]] std::uint64_t limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }
  void trim() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  }

  std::vector<std::uint32_t> limbs_;
};

Big big(Int128 v) { return Big(static_cast<UInt128>(v)); }

/// A multiset's execution sums per period, and its value as N/P with P
/// the product of the periods.
struct Reference {
  std::map<std::int64_t, Int128> esum;  ///< live periods only
  std::map<std::int64_t, int> count;

  void add(std::int64_t e, std::int64_t p) {
    esum[p] += e;
    ++count[p];
  }
  void sub(std::int64_t e, std::int64_t p) {
    esum[p] -= e;
    if (--count[p] == 0) {
      esum.erase(p);
      count.erase(p);
    }
  }
  [[nodiscard]] Reference with(Weight plus, Weight minus) const {
    Reference r = *this;
    if (minus.e > 0) r.sub(minus.e, minus.p);
    if (plus.e > 0) r.add(plus.e, plus.p);
    return r;
  }
  [[nodiscard]] Big den() const {
    Big d(1);
    for (const auto& [p, e] : esum) d = d * big(p);
    return d;
  }
  [[nodiscard]] Big num() const {
    Big n;
    for (const auto& [p, e] : esum) {
      Big term = big(e);
      for (const auto& [q, unused] : esum)
        if (q != p) term = term * big(q);
      n = n + term;
    }
    return n;
  }
  /// The value against a/b: <0 below, 0 equal, >0 above.
  [[nodiscard]] std::strong_ordering versus(Int128 a, std::int64_t b) const {
    return num() * big(b) <=> big(a) * den();
  }
  /// |value − a/b| < slack/2⁶⁴.
  [[nodiscard]] bool near(Int128 a, std::int64_t b, std::int64_t slack) const {
    const Big two64 = big(Int128{1} << 64);
    const Big lhs = num() * big(b) * two64;
    const Big rhs = big(a) * den() * two64;
    const Big tol = big(slack) * den() * big(b);
    return lhs < rhs + tol && rhs < lhs + tol;
  }
  /// True when the lcm of the live periods (and `extra`, if > 0) fits int64.
  [[nodiscard]] bool lcm_fits(std::int64_t extra = 0) const {
    Int128 l = extra > 0 ? extra : 1;
    for (const auto& [p, e] : esum) {
      l = l / std::gcd(static_cast<std::int64_t>(l % p), p) * p;
      if (l > std::numeric_limits<std::int64_t>::max()) return false;
    }
    return true;
  }
};

/// The side the reference puts a/b on, as an exact sum answers it.
Side exact_side(const Reference& r, Int128 a, std::int64_t b) {
  return r.versus(a, b) <= 0 ? Side::kWithin : Side::kAbove;
}

// --- the checks --------------------------------------------------------

/// Every comparison of `view` must agree with the reference `after`:
/// exact answers exactly, interval answers never wrongly, and kUnknown
/// only past int64 with the bound within the interval's width.
void check_view(const WeightSum::View& view, const Reference& after, Int128 a, std::int64_t b,
                bool exact_view, const std::string& where) {
  const Side got = view.against(a, b);
  if (exact_view) {
    ASSERT_EQ(got, exact_side(after, a, b)) << where;
    return;
  }
  if (got == Side::kUnknown) {
    const auto slack = static_cast<std::int64_t>(after.esum.size()) + 2;
    ASSERT_TRUE(after.near(a, b, slack)) << where;
  } else {
    ASSERT_EQ(got, exact_side(after, a, b)) << where;
  }
}

void check_sum(const WeightSum& sum, const Reference& ref, const std::string& where) {
  // Exact exactly when the live periods' lcm fits, whatever the history.
  ASSERT_EQ(sum.exact(), ref.lcm_fits()) << where;
  WeightSum fresh;
  for (const auto& [p, n] : ref.count) {
    const Int128 e = ref.esum.at(p);
    // n tasks with the same execution sum: n - 1 of weight 1/p, one the rest.
    for (int i = 1; i < n; ++i) fresh.add(1, p);
    fresh.add(static_cast<std::int64_t>(e) - (n - 1), p);
  }
  ASSERT_TRUE(sum == fresh) << where;
  const Big scaled = ref.num() * big(1'000'000'000);
  const Int128 fb = sum.floor_billionths();
  ASSERT_LE(big(fb) * ref.den(), scaled) << where;
  if (const std::optional<WeightSum::Fraction> f = sum.fraction()) {
    ASSERT_TRUE(sum.exact()) << where;
    ASSERT_EQ(big(f->num) * ref.den(), ref.num() * big(f->den)) << where;
    ASSERT_EQ(std::gcd(static_cast<std::int64_t>(f->num % f->den), f->den), 1) << where;
    ASSERT_GT(big(fb + 1) * ref.den(), scaled) << where;
  } else {
    ASSERT_FALSE(sum.exact()) << where;
    ASSERT_GT(big(fb + 2) * ref.den(), scaled) << where;
  }
}

struct Profile {
  const char* name;
  std::vector<std::int64_t> periods;
};

std::vector<std::int64_t> range(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (std::int64_t p = lo; p <= hi; ++p) out.push_back(p);
  return out;
}

std::vector<Profile> profiles() {
  std::vector<std::int64_t> divisors;
  for (std::int64_t d = 2; d <= 720720; ++d)
    if (720720 % d == 0 && d <= 5040) divisors.push_back(d);
  std::vector<std::int64_t> primes;
  for (std::int64_t p = 101; p < 200; ++p) {
    bool prime = true;
    for (std::int64_t q = 2; q * q <= p; ++q) prime = prime && p % q != 0;
    if (prime) primes.push_back(p);
  }
  std::vector<std::int64_t> mixed = primes;
  for (const std::int64_t p : {std::int64_t{1} << 31, std::int64_t{1} << 53,
                               std::int64_t{9'000'000'000'000'000}, std::int64_t{12}})
    mixed.push_back(p);
  return {
      {"divisors of 720720", divisors},
      {"coprime periods 101-199", primes},
      {"periods near 2^31", range((std::int64_t{1} << 31) - 40, (std::int64_t{1} << 31) + 40)},
      {"periods near 2^53", range((std::int64_t{1} << 53) - 80, std::int64_t{1} << 53)},
      {"periods near 9e15", range(9'000'000'000'000'000 - 80, 9'000'000'000'000'000)},
      {"mixed", mixed},
  };
}

TEST(WeightSum, RandomAddSubCompareMatchesABignumReference) {
  int exact_steps = 0;
  int interval_steps = 0;
  int crossings = 0;
  for (const Profile& profile : profiles()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 1000 + profile.periods.size());
      WeightSum sum;
      Reference ref;
      std::vector<Weight> live;
      const auto draw = [&] {
        const std::int64_t p = profile.periods[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(profile.periods.size()) - 1))];
        return Weight{rng.uniform_int(1, std::min<std::int64_t>(p, 1'000'000'000'000)), p};
      };
      const auto pick = [&] {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      };
      bool was_exact = true;
      const int steps = 160;
      for (int step = 0; step < steps + 40; ++step) {
        // Grow and churn, then drain to empty: the sum leaves int64 and comes back.
        const bool drain = step >= steps;
        if (drain && live.empty()) break;
        if (!drain && (live.empty() || (live.size() < 24 && rng.uniform_int(0, 9) < 6))) {
          const Weight w = draw();
          sum.add(w.e, w.p);
          ref.add(w.e, w.p);
          live.push_back(w);
        } else {
          const std::size_t k = pick();
          sum.sub(live[k].e, live[k].p);
          ref.sub(live[k].e, live[k].p);
          live[k] = live.back();
          live.pop_back();
        }
        const std::string where = std::string(profile.name) + " seed " +
                                  std::to_string(seed) + " step " + std::to_string(step);
        ASSERT_NO_FATAL_FAILURE(check_sum(sum, ref, where));
        (sum.exact() ? exact_steps : interval_steps) += 1;
        if (sum.exact() != was_exact) ++crossings;
        was_exact = sum.exact();
        // Views: a candidate in, a member (or none) out.
        for (int v = 0; v < 3; ++v) {
          const Weight plus = v == 2 ? Weight{} : draw();
          const Weight minus = live.empty() || v == 1 ? Weight{} : live[pick()];
          const WeightSum::View view = sum.with(plus, minus);
          const Reference after = ref.with(plus, minus);
          const bool exact_view = sum.exact() && ref.lcm_fits(plus.e > 0 ? plus.p : 0);
          ASSERT_EQ(view.fraction().has_value(), exact_view) << where;
          for (std::int64_t k = 0; k <= 4; ++k)
            ASSERT_NO_FATAL_FAILURE(check_view(view, after, k, 1, exact_view, where));
          const std::int64_t b = rng.uniform_int(1, 1'000'000'007);
          ASSERT_NO_FATAL_FAILURE(
              check_view(view, after, rng.uniform_int(0, 5 * b), b, exact_view, where));
          // A bound equal to the value is within it.
          if (const std::optional<WeightSum::Fraction> f = view.fraction()) {
            ASSERT_EQ(view.against(f->num, f->den), Side::kWithin) << where;
          }
        }
      }
    }
  }
  // Every regime ran, and sums crossed into and out of the interval.
  EXPECT_GT(exact_steps, 500);
  EXPECT_GT(interval_steps, 500);
  EXPECT_GT(crossings, 10);
}

TEST(WeightSum, SumExactlyAtCapacityIsWithin) {
  // Periods near 9e15 whose sum lands exactly on M = 2.
  const std::int64_t p = 9'000'000'000'000'000;
  const std::int64_t q = p / 3;
  WeightSum sum;
  sum.add(p / 2, p);
  sum.add(q / 3, q);
  sum.add(p / 2, p);
  ASSERT_TRUE(sum.exact());
  // 1/2 + 1/2 + 1/3 and the rest of the second processor.
  const Weight rest{q - q / 3, q};
  EXPECT_EQ(sum.with(rest).against(2), Side::kWithin);
  EXPECT_EQ(sum.with(Weight{rest.e + 1, rest.p}).against(2), Side::kAbove);
  sum.add(rest.e, rest.p);
  EXPECT_EQ(sum.fraction(), (WeightSum::Fraction{2, 1}));
  char buf[WeightSum::kFormatSize];
  EXPECT_EQ(sum.format(buf), "2");
  // Exactly at a rational bound too: Lopez's (beta*M + 1)/(beta + 1) at
  // M = 1, beta = 1 is 1.
  WeightSum one;
  one.add(1, 3);
  EXPECT_EQ(one.with(Weight{2, 3}).against(2, 2), Side::kWithin);
  EXPECT_EQ(one.with(Weight{2, 3}).against(1'000'000'006, 1'000'000'007), Side::kAbove);
}

TEST(WeightSum, ViewsPastLFollowTheLivePeriods) {
  // (1, p) over the primes 101..139: L ≈ 4.3e18 fits int64, and a
  // candidate of period 223 passes it.  Stale periods leave L above the
  // live periods' lcm: with 103 stale the candidate still passes int64,
  // with 101 and 103 stale it fits.
  const std::int64_t primes[] = {101, 103, 107, 109, 113, 127, 131, 137, 139};
  WeightSum sum;
  Reference ref;
  for (const std::int64_t p : primes) {
    sum.add(1, p);
    ref.add(1, p);
  }
  const Weight plus{1, 223};
  // Each view must equal a fresh sum's over the same live multiset, and
  // agree with the reference on bounds around the value.
  const auto check = [&](bool exact_view, const std::string& where) {
    WeightSum fresh;
    for (const auto& [p, n] : ref.count)
      for (int i = 0; i < n; ++i) fresh.add(1, p);
    const Reference after = ref.with(plus, Weight{});
    for (int repeat = 0; repeat < 2; ++repeat) {  // the second reads the kept lcm
      const WeightSum::View view = sum.with(plus);
      ASSERT_EQ(view.fraction().has_value(), exact_view) << where;
      ASSERT_EQ(view.fraction(), fresh.with(plus).fraction()) << where;
      for (const std::int64_t b : {std::int64_t{1}, std::int64_t{1'000'000'007}})
        for (Int128 a = b / 20; a <= b / 8; a += b / 400 + 1) {
          ASSERT_EQ(view.against(a, b), fresh.with(plus).against(a, b)) << where;
          ASSERT_NO_FATAL_FAILURE(check_view(view, after, a, b, exact_view, where));
        }
    }
  };
  const auto sub = [&](std::int64_t p) {
    sum.sub(1, p);
    ref.sub(1, p);
  };
  ASSERT_TRUE(sum.exact());
  ASSERT_NO_FATAL_FAILURE(check(false, "all live"));
  sub(103);
  ASSERT_NO_FATAL_FAILURE(check(false, "103 stale"));
  sub(101);
  ASSERT_NO_FATAL_FAILURE(check(true, "101 and 103 stale"));
  sum.add(1, 101);
  ref.add(1, 101);
  ASSERT_NO_FATAL_FAILURE(check(false, "101 live again"));
  sub(101);
  ASSERT_NO_FATAL_FAILURE(check(true, "101 stale again"));
  ASSERT_TRUE(sum.exact());
}

TEST(WeightSum, FormatsTheReducedPairAndTheIntervalsLowerEnd) {
  char buf[WeightSum::kFormatSize];
  WeightSum sum;
  EXPECT_EQ(sum.format(buf), "0");
  sum.add(2, 4);
  EXPECT_EQ(sum.format(buf), "1/2");
  sum.add(3, 6);
  EXPECT_EQ(sum.format(buf), "1");
  sum.add(1, 3);
  EXPECT_EQ(sum.format(buf), "4/3");
  // Ten joins (1, p) over the primes 101..149 pass an int64 lcm: the
  // total is ~ Σ 1/p, its lower end rounded down to nine decimals.
  WeightSum storm;
  for (const std::int64_t p : {101, 103, 107, 109, 113, 127, 131, 137, 139, 149})
    storm.add(1, p);
  EXPECT_FALSE(storm.exact());
  EXPECT_EQ(storm.format(buf), "~0.083691919");
  // Exact, with a numerator past int64: the set of the partitioned
  // 18-join repro, whose sum is about 7.63.
  WeightSum part;
  const std::int64_t tasks[][2] = {{1, 3},   {2, 4},   {27, 53}, {9, 19},  {5, 8},   {7, 16},
                                   {7, 13},  {3, 9},   {31, 59}, {15, 43}, {11, 32}, {7, 17},
                                   {6, 27},  {16, 47}, {19, 37}, {9, 29},  {8, 25},  {6, 11}};
  for (const auto& t : tasks) part.add(t[0], t[1]);
  ASSERT_TRUE(part.exact());
  EXPECT_EQ(part.format(buf), "17211978677994253771/2255095679721112800");
  EXPECT_EQ(part.floor_billionths(), 7'632'482'662);
}

}  // namespace
}  // namespace pfair
