// Strict knob parsing shared by the examples.
//
// Every environment variable and numeric flag parses strictly: an
// unparseable, trailing-garbage, negative-where-unsigned, or out-of-range
// value exits with code 2, naming the knob and what it accepts -- instead
// of strtod/strtoul silently mapping "abc" to 0 or wrapping "-1" to
// 0xFFFFFFFF and running a different experiment than the one asked for.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace hbmvolt::knobs {

[[noreturn]] inline void bad_knob(const char* name, const char* value,
                                  const char* accepted) {
  std::fprintf(stderr, "%s=\"%s\" is invalid; accepted: %s\n", name, value,
               accepted);
  std::exit(2);
}

/// Decimal integer in [lo, hi].
inline long parse_long(const char* name, const char* text, long lo, long hi,
                       const char* accepted) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    bad_knob(name, text, accepted);
  }
  return value;
}

/// Unsigned 64-bit integer (decimal, 0x hex, or octal); signs are
/// rejected because strtoull wraps "-5" to a huge value.
inline std::uint64_t parse_u64(const char* name, const char* text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-' ||
      text[0] == '+') {
    bad_knob(name, text, "an unsigned integer (decimal, 0x hex, or octal)");
  }
  return value;
}

/// Decimal number in [lo, hi] (NaN is out of every range).
inline double parse_double(const char* name, const char* text, double lo,
                           double hi, const char* accepted) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value >= lo && value <= hi)) {
    bad_knob(name, text, accepted);
  }
  return value;
}

/// Environment variable `name` through parse_long, or `fallback` if unset.
inline long env_long(const char* name, long fallback, long lo, long hi,
                     const char* accepted) {
  const char* text = std::getenv(name);
  return text != nullptr ? parse_long(name, text, lo, hi, accepted)
                         : fallback;
}

/// Environment variable `name` through parse_u64, or `fallback` if unset.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* text = std::getenv(name);
  return text != nullptr ? parse_u64(name, text) : fallback;
}

/// Non-negative decimal environment variable, or `fallback` if unset.
inline double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  return text != nullptr
             ? parse_double(name, text, 0.0,
                            std::numeric_limits<double>::infinity(),
                            "a non-negative decimal number")
             : fallback;
}

}  // namespace hbmvolt::knobs
