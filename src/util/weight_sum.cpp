#include "util/weight_sum.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <ostream>

namespace pfair {

namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kBillion = 1'000'000'000;

/// ⌊e·2⁶⁴/p⌋, and whether the division left a remainder (so the ceiling
/// is one more).
struct Fixed {
  UInt128 lo = 0;
  bool inexact = false;
};

[[nodiscard]] Fixed fixed(Int128 e, std::int64_t p) noexcept {
  assert(e >= 0 && p > 0);
  const auto d = static_cast<UInt128>(p);
  const UInt128 q = static_cast<UInt128>(e) / d;
  const UInt128 r = (static_cast<UInt128>(e) % d) << 64;  // below 2^127: the remainder is < p
  return Fixed{(q << 64) + r / d, r % d != 0};
}

/// x·2⁻⁶⁴ <= a/b for a >= 0, b > 0: integer parts first, then the
/// fractions, each product below 2¹²⁷.
[[nodiscard]] bool fixed_at_most(UInt128 x, Int128 a, std::int64_t b) noexcept {
  const auto qx = static_cast<Int128>(x >> 64);
  const Int128 qa = a / b;
  if (qx != qa) return qx < qa;
  const UInt128 fx = static_cast<std::uint64_t>(x);
  return fx * static_cast<UInt128>(b) <= static_cast<UInt128>(a % b) << 64;
}

[[nodiscard]] WeightSum::Fraction reduce(Int128 num, std::int64_t den) noexcept {
  assert(num >= 0 && den > 0);
  if (num <= kInt64Max) {
    const auto n = static_cast<std::int64_t>(num);
    const std::int64_t g = std::gcd(n, den);
    return {n / g, den / g};
  }
  const std::int64_t g = std::gcd(static_cast<std::int64_t>(num % den), den);
  return {num / g, den / g};
}

/// Decimal digits of v at p; returns the end.
char* write_decimal(char* p, UInt128 v) {
  if (v <= std::numeric_limits<std::uint64_t>::max())
    return std::to_chars(p, p + 20, static_cast<std::uint64_t>(v)).ptr;
  char digits[39];
  std::size_t n = 0;
  for (; v > 0; v /= 10) digits[n++] = static_cast<char>('0' + static_cast<int>(v % 10));
  while (n > 0) *p++ = digits[--n];
  return p;
}

}  // namespace

std::ostream& operator<<(std::ostream& os, const WeightSum::Fraction& f) {
  char buf[WeightSum::kFormatSize];
  char* p = write_decimal(buf, static_cast<UInt128>(f.num));
  *p++ = '/';
  p = std::to_chars(p, buf + sizeof buf, f.den).ptr;
  return os.write(buf, p - buf);
}

WeightSum::Side WeightSum::View::against(Int128 num, std::int64_t den) const noexcept {
  assert(num >= 0 && den > 0);
  if (!exact_) {
    if (fixed_at_most(hi_, num, den)) return Side::kWithin;
    return fixed_at_most(lo_, num, den) ? Side::kUnknown : Side::kAbove;
  }
  if (den == 1 && num <= kInt64Max)  // both factors below 2⁶³
    return num_ <= num * den_ ? Side::kWithin : Side::kAbove;
  const Int128 q = num_ / den_;
  const Int128 qb = num / den;
  if (q != qb) return q < qb ? Side::kWithin : Side::kAbove;
  return (num_ % den_) * den <= (num % den) * den_ ? Side::kWithin : Side::kAbove;
}

WeightSum::Side WeightSum::View::against_double(double bound) const noexcept {
  if (exact_) {
    const Fraction f = reduce(num_, den_);
    return static_cast<double>(f.num) / static_cast<double>(f.den) <= bound ? Side::kWithin
                                                                           : Side::kAbove;
  }
  // bound·2⁶⁴ is exact (a power-of-two scaling); the interval's ends are
  // integers, so they compare against its floor.
  const double scaled = std::ldexp(bound, 64);
  if (!(scaled >= 0.0)) return Side::kAbove;
  if (scaled >= 0x1p127) return Side::kWithin;
  const auto b = static_cast<UInt128>(scaled);
  if (hi_ <= b) return Side::kWithin;
  return lo_ <= b ? Side::kUnknown : Side::kAbove;
}

std::optional<WeightSum::Fraction> WeightSum::View::fraction() const {
  if (!exact_) return std::nullopt;
  return reduce(num_, den_);
}

std::size_t WeightSum::position(std::int64_t p) const noexcept {
  return static_cast<std::size_t>(std::lower_bound(periods_.begin(), periods_.end(), p) -
                                  periods_.begin());
}

const WeightSum::Slot* WeightSum::find(std::int64_t p) const noexcept {
  const std::size_t i = position(p);
  return i < periods_.size() && periods_[i] == p ? &slots_[i] : nullptr;
}

void WeightSum::add(std::int64_t e, std::int64_t p) {
  assert(e >= 0 && p > 0);
  std::size_t i = position(p);
  if (i == periods_.size() || periods_[i] != p) {
    i = insert(p);
    live_lcm_memo_ = 0;
  } else if (slots_[i].count == 0) {
    --stale_;  // a stale period is live again
    live_lcm_memo_ = 0;
  }
  ++slots_[i].count;
  shift(i, e);
  reduced_.reset();
}

void WeightSum::sub(std::int64_t e, std::int64_t p) {
  const std::size_t i = position(p);
  assert(i < periods_.size() && periods_[i] == p);
  Slot& s = slots_[i];
  assert(s.count > 0 && s.esum >= e);
  --s.count;
  shift(i, -Int128{e});
  reduced_.reset();
  if (s.count > 0) return;
  live_lcm_memo_ = 0;
  if (exact_) {
    ++stale_;
    return;
  }
  // Past int64 the period leaves the table, and the rest may fit again.
  assert(s.esum == 0);
  periods_.erase(periods_.begin() + static_cast<std::ptrdiff_t>(i));
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(i));
  if (const std::optional<std::int64_t> l = live_lcm(0)) rebuild(*l);
}

void WeightSum::shift(std::size_t i, Int128 delta) {
  Slot& s = slots_[i];
  s.esum += delta;
  if (exact_) {
    num_ += delta * s.scale;
    return;
  }
  const Fixed f = fixed(s.esum, periods_[i]);
  lo_ = lo_ - s.lo + f.lo;
  if (s.inexact) --inexact_;
  if (f.inexact) ++inexact_;
  s.lo = f.lo;
  s.inexact = f.inexact;
}

std::size_t WeightSum::insert(std::int64_t p) {
  if (exact_ && lcm_ % p != 0) {
    const std::int64_t k = p / std::gcd(lcm_, p);
    if (lcm_ <= kInt64Max / k) {
      lcm_ *= k;
      num_ *= k;
      for (Slot& s : slots_) s.scale *= k;
    } else if (const std::optional<std::int64_t> l =
                   stale_ > 0 ? live_lcm(p) : std::nullopt) {
      rebuild(*l);
    } else {
      to_interval();
    }
  }
  const std::size_t i = position(p);
  periods_.insert(periods_.begin() + static_cast<std::ptrdiff_t>(i), p);
  Slot s;
  if (exact_) s.scale = lcm_ / p;
  slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(i), s);
  return i;
}

std::optional<std::int64_t> WeightSum::live_lcm(std::int64_t extra) const {
  std::int64_t l = extra > 0 ? extra : 1;
  for (std::size_t i = 0; i < periods_.size(); ++i) {
    const std::int64_t p = periods_[i];
    if (slots_[i].count == 0 || l % p == 0) continue;
    const std::int64_t k = p / std::gcd(l, p);
    if (l > kInt64Max / k) return std::nullopt;
    l *= k;
  }
  return l;
}

void WeightSum::drop_stale() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].count == 0) continue;
    periods_[kept] = periods_[i];
    slots_[kept++] = slots_[i];
  }
  periods_.resize(kept);
  slots_.resize(kept);
  stale_ = 0;
}

void WeightSum::rebuild(std::int64_t lcm) {
  drop_stale();
  exact_ = true;
  lcm_ = lcm;
  num_ = 0;
  lo_ = 0;
  inexact_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.scale = lcm / periods_[i];
    s.lo = 0;
    s.inexact = false;
    num_ += s.esum * s.scale;
  }
}

void WeightSum::to_interval() {
  drop_stale();
  exact_ = false;
  num_ = 0;
  lcm_ = 1;
  lo_ = 0;
  inexact_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    const Fixed f = fixed(s.esum, periods_[i]);
    s.scale = 0;
    s.lo = f.lo;
    s.inexact = f.inexact;
    lo_ += f.lo;
    if (f.inexact) ++inexact_;
  }
}

WeightSum::View WeightSum::with(Weight plus, Weight minus) const {
  if (!exact_) return interval_view(plus, minus);
  View v;
  v.num_ = num_;
  v.den_ = lcm_;
  if (minus.e > 0) {
    const Slot* s = find(minus.p);
    assert(s != nullptr && s->count > 0);
    v.num_ -= Int128{minus.e} * s->scale;
  }
  if (plus.e == 0) return v;
  if (const Slot* s = find(plus.p)) {
    v.num_ += Int128{plus.e} * s->scale;
    return v;
  }
  if (lcm_ % plus.p == 0) {
    v.num_ += Int128{plus.e} * (lcm_ / plus.p);
    return v;
  }
  // One lcm step for a period that does not divide L: over L, or past
  // int64 over the live periods' lcm, which divides L.
  std::int64_t l = lcm_;
  if (stale_ > 0) {
    if (live_lcm_memo_ == 0) live_lcm_memo_ = *live_lcm(0);
    l = live_lcm_memo_;
  }
  const std::int64_t g = std::gcd(l, plus.p);
  const std::int64_t k = plus.p / g;
  if (l <= kInt64Max / k) {
    // The value's denominator divides l, so it is num_·l/L over l.
    v.num_ = v.num_ / (lcm_ / l) * k + Int128{plus.e} * (l / g);
    v.den_ = l * k;
    return v;
  }
  // Past int64 with plus.p: the exact part's interval and the new task's.
  const Fixed held = fixed(v.num_, lcm_);
  const Fixed added = fixed(plus.e, plus.p);
  v.exact_ = false;
  v.lo_ = held.lo + added.lo;
  v.hi_ = v.lo_ + held.inexact + added.inexact;
  return v;
}

WeightSum::View WeightSum::interval_view(Weight plus, Weight minus) const {
  UInt128 lo = lo_;
  std::size_t inexact = inexact_;
  // Moves period p's execution sum by delta, as shift() would.
  const auto move = [&](std::int64_t p, Int128 delta) {
    const Slot* s = find(p);
    const Int128 e0 = s != nullptr ? s->esum : 0;
    const Fixed before = fixed(e0, p);
    const Fixed after = fixed(e0 + delta, p);
    lo = lo - before.lo + after.lo;
    if (before.inexact) --inexact;
    if (after.inexact) ++inexact;
  };
  if (minus.e > 0 && plus.e > 0 && minus.p == plus.p) {
    move(plus.p, Int128{plus.e} - minus.e);
  } else {
    if (minus.e > 0) move(minus.p, -Int128{minus.e});
    if (plus.e > 0) move(plus.p, plus.e);
  }
  View v;
  v.exact_ = false;
  v.lo_ = lo;
  v.hi_ = lo + inexact;
  return v;
}

std::optional<WeightSum::Fraction> WeightSum::fraction() const {
  if (!exact_) return std::nullopt;
  if (!reduced_) reduced_ = reduce(num_, lcm_);
  return reduced_;
}

Int128 WeightSum::floor_billionths() const {
  if (exact_) return num_ / lcm_ * kBillion + num_ % lcm_ * kBillion / lcm_;
  const UInt128 fraction = static_cast<std::uint64_t>(lo_);
  return static_cast<Int128>(lo_ >> 64) * kBillion +
         static_cast<Int128>(fraction * static_cast<UInt128>(kBillion) >> 64);
}

std::string_view WeightSum::format(char (&buf)[kFormatSize]) const {
  char* p = buf;
  if (const std::optional<Fraction> f = fraction()) {
    p = write_decimal(p, static_cast<UInt128>(f->num));
    if (f->den != 1) {
      *p++ = '/';
      p = std::to_chars(p, buf + kFormatSize, f->den).ptr;
    }
  } else {
    const Int128 b = floor_billionths();
    *p++ = '~';
    p = write_decimal(p, static_cast<UInt128>(b / kBillion));
    *p++ = '.';
    auto digits = static_cast<std::int64_t>(b % kBillion);
    for (int i = 8; i >= 0; --i, digits /= 10) p[i] = static_cast<char>('0' + digits % 10);
    p += 9;
  }
  return {buf, static_cast<std::size_t>(p - buf)};
}

bool operator==(const WeightSum& a, const WeightSum& b) {
  if (a.exact_ != b.exact_) return false;
  if (a.exact_) return a.fraction() == b.fraction();
  return a.lo_ == b.lo_ && a.inexact_ == b.inexact_;
}

}  // namespace pfair
