// Exact integer helpers used throughout the Pfair window algebra.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <numeric>

namespace pfair {

/// Floor of a/b for b > 0 and any sign of a (C++ `/` truncates toward 0).
[[nodiscard]] constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  assert(b > 0);
  const std::int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

/// Ceiling of a/b for b > 0 and any sign of a.
[[nodiscard]] constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  assert(b > 0);
  const std::int64_t q = a / b;
  return (a % b != 0 && a > 0) ? q + 1 : q;
}

/// 128-bit integer for products that may pass int64 (GCC and Clang).
__extension__ typedef __int128 Int128;
/// Its unsigned twin, for fixed-point values in units of 2⁻⁶⁴.
__extension__ typedef unsigned __int128 UInt128;

/// floor(a*b / c) for a, b >= 0 and c > 0, with the product formed
/// exactly: in int64 while it fits, else in Int128.  The quotient must
/// fit an int64.
[[nodiscard]] constexpr std::int64_t mul_floor_div(std::int64_t a, std::int64_t b,
                                                   std::int64_t c) noexcept {
  assert(a >= 0 && b >= 0 && c > 0);
  std::int64_t ab = 0;
  if (!__builtin_mul_overflow(a, b, &ab)) [[likely]] return ab / c;
  return static_cast<std::int64_t>(static_cast<Int128>(a) * b / c);
}

/// ceil(a*b / c) for a, b >= 0 and c > 0, product formed as in
/// mul_floor_div.
[[nodiscard]] constexpr std::int64_t mul_ceil_div(std::int64_t a, std::int64_t b,
                                                  std::int64_t c) noexcept {
  assert(a >= 0 && b >= 0 && c > 0);
  std::int64_t ab = 0;
  if (!__builtin_mul_overflow(a, b, &ab)) [[likely]] return ceil_div(ab, c);
  return static_cast<std::int64_t>((static_cast<Int128>(a) * b + (c - 1)) / c);
}

/// (a*b) mod c for a, b >= 0 and c > 0, product formed as in
/// mul_floor_div.
[[nodiscard]] constexpr std::int64_t mul_mod(std::int64_t a, std::int64_t b,
                                             std::int64_t c) noexcept {
  assert(a >= 0 && b >= 0 && c > 0);
  std::int64_t ab = 0;
  if (!__builtin_mul_overflow(a, b, &ab)) [[likely]] return ab % c;
  return static_cast<std::int64_t>(static_cast<Int128>(a) * b % c);
}

/// a/b < c/d for b, d > 0, decided on exact Int128 cross products (a
/// Rational comparison forms them in int64 and wraps past ~9.2e18).
[[nodiscard]] constexpr bool ratio_less(std::int64_t a, std::int64_t b, std::int64_t c,
                                        std::int64_t d) noexcept {
  assert(b > 0 && d > 0);
  return static_cast<Int128>(a) * d < static_cast<Int128>(c) * b;
}

/// a*b with a debug-mode overflow check.  The library works with task
/// parameters small enough (periods <= ~1e9, horizons <= ~1e12) that
/// 64-bit products never overflow in correct usage; this assert catches
/// misuse early.
[[nodiscard]] constexpr std::int64_t checked_mul(std::int64_t a, std::int64_t b) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  std::int64_t r = 0;
  const bool overflow = __builtin_mul_overflow(a, b, &r);
  assert(!overflow);
  (void)overflow;
  return r;
#else
  return a * b;
#endif
}

/// Least common multiple that saturates at max() instead of overflowing.
/// Hyperperiods of random task sets can be astronomically large; callers
/// treat saturation as "longer than any horizon we simulate".
[[nodiscard]] constexpr std::int64_t saturating_lcm(std::int64_t a, std::int64_t b) noexcept {
  assert(a > 0 && b > 0);
  const std::int64_t g = std::gcd(a, b);
  const std::int64_t x = a / g;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (x > kMax / b) return kMax;
  return x * b;
}

}  // namespace pfair
