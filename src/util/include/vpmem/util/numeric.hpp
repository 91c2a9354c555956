// Number-theoretic helpers used throughout the analytic model of
// Oed & Lange (1985).  All arithmetic is signed 64-bit; bank counts and
// distances in the paper are tiny (m <= a few thousand), so overflow is
// not a practical concern, but egcd/mod helpers are written to be exact
// for the full range anyway.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace vpmem {

using i64 = std::int64_t;

/// Greatest common divisor with gcd(0, 0) == 0 and gcd(a, 0) == |a|,
/// matching the paper's convention gcd(m, 0) = m (used right after
/// Theorem 3: streams with d1 == d2 are conflict-free iff r >= 2*nc).
[[nodiscard]] constexpr i64 gcd(i64 a, i64 b) noexcept {
  return std::gcd(a, b);
}

/// gcd of three values, the paper's f = gcd(m, d1, d2).
[[nodiscard]] constexpr i64 gcd(i64 a, i64 b, i64 c) noexcept {
  return std::gcd(std::gcd(a, b), c);
}

/// Least common multiple; lcm(a, 0) == 0.
[[nodiscard]] constexpr i64 lcm(i64 a, i64 b) noexcept {
  return std::lcm(a, b);
}

/// Result of the extended Euclidean algorithm: g = gcd(a, b) = a*x + b*y.
struct Egcd {
  i64 g;
  i64 x;
  i64 y;
};

/// Extended Euclidean algorithm (Birkhoff & MacLane [9] in the paper).
[[nodiscard]] constexpr Egcd egcd(i64 a, i64 b) noexcept {
  if (b == 0) {
    return (a < 0) ? Egcd{-a, -1, 0} : Egcd{a, 1, 0};
  }
  const Egcd sub = egcd(b, a % b);
  return Egcd{sub.g, sub.y, sub.x - (a / b) * sub.y};
}

/// Canonical residue of a modulo m, in [0, m). Requires m > 0.
[[nodiscard]] constexpr i64 mod_norm(i64 a, i64 m) {
  if (m <= 0) throw std::invalid_argument{"mod_norm: modulus must be positive"};
  const i64 r = a % m;
  return (r < 0) ? r + m : r;
}

/// (a + b) mod m for a, b already in [0, m); never overflows.
[[nodiscard]] constexpr i64 add_mod(i64 a, i64 b, i64 m) noexcept {
  return a >= m - b ? a - (m - b) : a + b;
}

/// (a * b) mod m in [0, m) for any a, b, without overflowing i64 (stream
/// addresses start + k*d with k near 2^62 stay defined).  Requires m > 0.
[[nodiscard]] constexpr i64 mul_mod(i64 a, i64 b, i64 m) {
  a = mod_norm(a, m);
  b = mod_norm(b, m);
  if (m <= 3'037'000'499) return a * b % m;  // a, b < m <= sqrt(2^63 - 1)
  i64 product = 0;  // double-and-add: only for m beyond ~3e9
  for (; b > 0; b >>= 1) {
    if ((b & 1) != 0) product = add_mod(product, a, m);
    a = add_mod(a, a, m);
  }
  return product;
}

/// Multiplicative inverse of a modulo m; requires gcd(a, m) == 1.
/// Used by the Appendix isomorphism d1 (+) d2 == k*d1 (+) k*d2 (mod m).
[[nodiscard]] constexpr i64 mod_inverse(i64 a, i64 m) {
  if (m <= 0) throw std::invalid_argument{"mod_inverse: modulus must be positive"};
  const Egcd e = egcd(mod_norm(a, m), m);
  if (e.g != 1) throw std::invalid_argument{"mod_inverse: argument not coprime to modulus"};
  return mod_norm(e.x, m);
}

/// Ceiling division for positive divisor.
[[nodiscard]] constexpr i64 ceil_div(i64 a, i64 b) {
  if (b <= 0) throw std::invalid_argument{"ceil_div: divisor must be positive"};
  return (a >= 0) ? (a + b - 1) / b : -((-a) / b);
}

/// True if a divides b (a != 0).
[[nodiscard]] constexpr bool divides(i64 a, i64 b) noexcept {
  return a != 0 && b % a == 0;
}

/// True if gcd(a, b) == 1.
[[nodiscard]] constexpr bool coprime(i64 a, i64 b) noexcept {
  return std::gcd(a, b) == 1;
}

/// All positive divisors of n (n > 0), ascending.  The Appendix notes that
/// for the first stream only distances d1 | m need be considered; sweeps
/// over theorem hypotheses use this.
[[nodiscard]] std::vector<i64> divisors(i64 n);

}  // namespace vpmem
