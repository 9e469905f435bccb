// Error-free floating-point transformations: Knuth's TwoSum, Dekker's
// fast two-sum, and the TwoDouble compensated pair built from them. A
// TwoDouble represents a sum as an unevaluated pair hi + lo where the
// pair carries (up to) twice the significand of one double. Accumulating
// through these transformations keeps partial sums EXACT whenever the
// running value fits the ~106-bit pair window, which is what makes the
// sharded SUM gather byte-identical to the unsharded engine for
// arbitrary (non-dyadic) attribute columns — the rounding that used to
// depend on association order never happens (see the merge-identity
// contract in service/shard_server.h).
//
// None of this survives -ffast-math; the build does not use it.

#ifndef DBSA_UTIL_COMPENSATED_H_
#define DBSA_UTIL_COMPENSATED_H_

namespace dbsa {

/// Unevaluated sum of two doubles. Normalized after every operation
/// below: hi is the double nearest the represented value, |lo| <= ulp(hi)/2.
struct TwoDouble {
  double hi = 0.0;
  double lo = 0.0;

  /// The nearest single double to the represented value.
  double Rounded() const { return hi + lo; }
};

/// Knuth TwoSum: a + b == s.hi + s.lo exactly, for any a, b.
inline TwoDouble TwoSum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

/// Dekker fast two-sum; requires |a| >= |b| (or a == 0).
inline TwoDouble QuickTwoSum(double a, double b) {
  const double s = a + b;
  return {s, b - (s - a)};
}

/// pair + double (error-free while the value fits the pair window).
inline TwoDouble AddDouble(const TwoDouble& a, double b) {
  TwoDouble s = TwoSum(a.hi, b);
  s.lo += a.lo;
  return QuickTwoSum(s.hi, s.lo);
}

/// pair + pair (the accurate double-double addition).
inline TwoDouble AddPair(const TwoDouble& a, const TwoDouble& b) {
  TwoDouble s = TwoSum(a.hi, b.hi);
  const TwoDouble t = TwoSum(a.lo, b.lo);
  s.lo += t.hi;
  s = QuickTwoSum(s.hi, s.lo);
  s.lo += t.lo;
  return QuickTwoSum(s.hi, s.lo);
}

/// pair - pair.
inline TwoDouble SubPair(const TwoDouble& a, const TwoDouble& b) {
  return AddPair(a, {-b.hi, -b.lo});
}

}  // namespace dbsa

#endif  // DBSA_UTIL_COMPENSATED_H_
