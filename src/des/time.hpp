// Simulated-time primitives for the discrete-event engine.
//
// All simulated timestamps and durations are integer nanoseconds.  Integer
// time gives exact comparisons and bit-reproducible runs; sub-nanosecond
// rounding error is far below every modeled cost (the cheapest modeled
// operation is a few nanoseconds).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace des {

/// A point in simulated time, in nanoseconds since simulation start.
using Time = std::int64_t;

/// A span of simulated time, in nanoseconds.  May be zero but never negative
/// in a well-formed schedule.
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000 * kNanosecond;
inline constexpr Duration kMillisecond = 1000 * kMicrosecond;
inline constexpr Duration kSecond = 1000 * kMillisecond;

/// Sentinel meaning "never" / "not scheduled".
inline constexpr Time kTimeNever = std::numeric_limits<Time>::max();

/// Converts a duration in (possibly fractional) seconds to integer
/// nanoseconds, rounding half away from zero.
constexpr Duration from_seconds(double seconds) {
  const double ns = seconds * 1e9;
  return static_cast<Duration>(ns + (ns >= 0 ? 0.5 : -0.5));
}

/// `count` units of `unit` as integer nanoseconds, truncated toward zero
/// like a cast; nullopt when `count` is not finite or the product does not
/// fit in a Time (a plain cast would then be undefined behaviour).
inline std::optional<Duration> checked_duration(double count, Duration unit) {
  const double ns = count * static_cast<double>(unit);
  constexpr double kLimit = 0x1p63;  // 2^63, exact in a double
  if (!(ns > -kLimit && ns < kLimit)) return std::nullopt;
  return static_cast<Duration>(ns);
}

/// Converts an integer-nanosecond time to floating-point seconds.
constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-9; }

/// Duration of transferring `bytes` at `bytes_per_second`, rounded up so a
/// nonzero transfer never takes zero time.
constexpr Duration transfer_time(std::uint64_t bytes, double bytes_per_second) {
  if (bytes == 0 || bytes_per_second <= 0.0) return 0;
  const double ns = static_cast<double>(bytes) / bytes_per_second * 1e9;
  auto d = static_cast<Duration>(ns);
  if (static_cast<double>(d) < ns) ++d;
  return d > 0 ? d : 1;
}

/// Human-readable rendering, e.g. "12.345 ms", for logs and bench tables.
std::string format_time(Time t);

}  // namespace des
