// Checked 64-bit integer arithmetic (products through 128-bit intermediates).
//
// All resource bookkeeping in this library is exact integer arithmetic in
// "resource units" (see DESIGN.md §2). These helpers centralize the overflow
// discipline: every product of two user-controlled quantities goes through
// mul_checked(), and division helpers implement the exact ceiling/floor
// semantics the paper's bounds use.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace sharedres::util {

using i64 = std::int64_t;
__extension__ typedef __int128 i128;  // GCC/Clang builtin; fine under -Wpedantic

/// Thrown when a checked operation would overflow 64 bits.
class OverflowError : public std::runtime_error {
 public:
  explicit OverflowError(const std::string& what) : std::runtime_error(what) {}
};

/// Exact product; throws OverflowError if the result does not fit in i64.
constexpr i64 mul_checked(i64 a, i64 b) {
  const i128 p = static_cast<i128>(a) * static_cast<i128>(b);
  if (p > static_cast<i128>(std::numeric_limits<i64>::max()) ||
      p < static_cast<i128>(std::numeric_limits<i64>::min())) {
    throw OverflowError("mul_checked: 64-bit overflow");
  }
  return static_cast<i64>(p);
}

/// Exact sum; throws OverflowError if the result does not fit in i64. One
/// add and a branch on the overflow flag: window scans call it per member.
constexpr i64 add_checked(i64 a, i64 b) {
  i64 s = 0;
  if (__builtin_add_overflow(a, b, &s)) {
    throw OverflowError("add_checked: 64-bit overflow");
  }
  return s;
}

/// ⌈a / b⌉. PRECONDITION: a ≥ 0, b > 0 (all callers divide non-negative
/// totals by positive capacities/requirements). Outside the precondition the
/// result follows C++ truncating division and is NOT a ceiling for a < 0;
/// b = 0 is UB. Callers must validate, this helper does not.
constexpr i64 ceil_div(i64 a, i64 b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// ⌊a / b⌋. Same precondition as ceil_div (a ≥ 0, b > 0); within it plain
/// division already floors, which is the only reason this is not a
/// round-toward-negative-infinity implementation.
constexpr i64 floor_div(i64 a, i64 b) { return a / b; }

/// Least common multiple with overflow checking.
constexpr i64 lcm_checked(i64 a, i64 b) {
  if (a == 0 || b == 0) return 0;
  const i64 g = std::gcd(a, b);
  return mul_checked(a / g, b);
}

}  // namespace sharedres::util
