// Simulated time for the SATIN reproduction.
//
// The paper's evaluation spans eleven orders of magnitude: per-byte hash
// times of 6.67e-9 s (Table I) up to full detection runs of ~1.5e3 s
// (Section VI-B1). A 64-bit count of picoseconds covers both ends with
// integer exactness (range ~106 days) and avoids floating-point drift in
// the event queue ordering.
#pragma once

#include <cmath>
#include <compare>
#include <type_traits>
#include <cstdint>
#include <limits>
#include <string>

namespace satin::sim {

namespace time_detail {

// Bit-exact replacement for std::llround (round half away from zero) on
// the |x| < 2^63 domain the Time constructors use. Two reasons it is not
// simply std::llround: the baseline x86-64 build emits a libm PLT call
// for llround on every seconds-to-Time conversion (hundreds of millions
// per bench), and the block draw pipeline precomputes conversions in
// vector kernels, so the rounding must be expressible in IEEE-exact
// add/sub/compare ops that mean the same thing at every vector width.
// tests/sim/time_test.cpp differentials this against std::llround over
// random and adversarial (exact .5, huge, negative) inputs.
inline std::int64_t llround_exact(double x) {
  if (!(x < 0x1p52 && x > -0x1p52)) {
    // Already integral (or non-finite, where llround is unspecified too).
    return static_cast<std::int64_t>(x);
  }
  const double ax = x < 0.0 ? -x : x;
  // Shift into the 2^52 window and back: rounds ax to the nearest
  // integer, ties to even (ax + c lands in [2^52, 2^53), where the ulp is
  // exactly 1 — ax is non-negative, so the plain 2^52 constant covers the
  // whole guarded range). d = ax - r is exact and |d| <= 0.5; the only
  // correction needed is the exact tie, which llround rounds up (away
  // from zero, applied to the magnitude).
  const double c = 0x1p52;
  const double r = (ax + c) - c;
  const double d = ax - r;
  std::int64_t i = static_cast<std::int64_t>(r);
  i += d == 0.5 ? 1 : 0;
  return x < 0.0 ? -i : i;
}

}  // namespace time_detail

// A point in simulated time, or a span of it, counted in picoseconds.
// Value type; totally ordered; arithmetic never silently overflows in
// practice because simulations stay far below the 106-day range.
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time from_ps(std::int64_t ps) { return Time(ps); }
  static constexpr Time from_ns(std::int64_t ns) { return Time(ns * 1'000); }
  static constexpr Time from_us(std::int64_t us) {
    return Time(us * 1'000'000);
  }
  static constexpr Time from_ms(std::int64_t ms) {
    return Time(ms * 1'000'000'000);
  }
  static constexpr Time from_sec(std::int64_t s) {
    return Time(s * 1'000'000'000'000);
  }

  // Fractional constructors round to the nearest picosecond.
  static Time from_ns_f(double ns) {
    return Time(time_detail::llround_exact(ns * 1e3));
  }
  static Time from_us_f(double us) {
    return Time(time_detail::llround_exact(us * 1e6));
  }
  static Time from_ms_f(double ms) {
    return Time(time_detail::llround_exact(ms * 1e9));
  }
  static Time from_sec_f(double s) {
    return Time(time_detail::llround_exact(s * 1e12));
  }

  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() {
    return Time(std::numeric_limits<std::int64_t>::max());
  }

  constexpr std::int64_t ps() const { return ps_; }
  constexpr double ns() const { return static_cast<double>(ps_) * 1e-3; }
  constexpr double us() const { return static_cast<double>(ps_) * 1e-6; }
  constexpr double ms() const { return static_cast<double>(ps_) * 1e-9; }
  constexpr double sec() const { return static_cast<double>(ps_) * 1e-12; }

  constexpr bool is_zero() const { return ps_ == 0; }

  friend constexpr auto operator<=>(Time, Time) = default;

  friend constexpr Time operator+(Time a, Time b) { return Time(a.ps_ + b.ps_); }
  friend constexpr Time operator-(Time a, Time b) { return Time(a.ps_ - b.ps_); }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Time operator*(Time a, I k) {
    return Time(a.ps_ * static_cast<std::int64_t>(k));
  }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Time operator*(I k, Time a) {
    return a * k;
  }
  friend Time operator*(Time a, double k) {
    return Time(time_detail::llround_exact(static_cast<double>(a.ps_) * k));
  }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Time operator/(Time a, I k) {
    return Time(a.ps_ / static_cast<std::int64_t>(k));
  }
  // Ratio of two spans (e.g. bytes scanned per second of scan time).
  friend constexpr double operator/(Time a, Time b) {
    return static_cast<double>(a.ps_) / static_cast<double>(b.ps_);
  }

  constexpr Time& operator+=(Time o) {
    ps_ += o.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time o) {
    ps_ -= o.ps_;
    return *this;
  }

  // Human-readable rendering with an auto-selected unit, e.g. "8.04e-02 s".
  std::string to_string() const;

 private:
  constexpr explicit Time(std::int64_t ps) : ps_(ps) {}
  std::int64_t ps_ = 0;
};

// A span of simulated time. Same representation as Time; the alias keeps
// signatures self-documenting (schedule_after(Duration) vs schedule_at(Time)).
using Duration = Time;

}  // namespace satin::sim
