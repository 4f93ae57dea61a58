// Strict number parsing for command-line flags.
//
// std::strtoull accepts a leading '-' (and wraps the value), stops
// silently at trailing junk, and turns garbage into 0.  The tools parse
// every numeric flag through parse_u64 (or parse_decimal for fractional
// values) instead, so a bad value is a usage error (exit 2) rather than
// a surprising campaign.
#pragma once

#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/types.h"

namespace hn {

/// Parse all of `text`, the value of `flag`, into `*out`: an unsigned
/// number in strtoull's base-0 syntax (decimal, 0x hex, 0 octal) within
/// T's range.  Empty text, signs, whitespace, trailing characters and
/// out-of-range values are rejected: the reason goes to stderr and the
/// result is false, with `*out` untouched.
template <std::unsigned_integral T>
bool parse_u64(const char* flag, const char* text, T* out) {
  constexpr unsigned long long kMax = std::numeric_limits<T>::max();
  if (*text >= '0' && *text <= '9') {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (errno != ERANGE && *end == '\0' && value <= kMax) {
      *out = static_cast<T>(value);
      return true;
    }
  }
  std::fprintf(stderr,
               "%s: expected an unsigned number no larger than %llu, got "
               "'%s'\n",
               flag, kMax, text);
  return false;
}

/// Parse all of `text`, the value of `flag`, into `*out`: a plain
/// unsigned decimal — digits with at most one '.', no sign, exponent,
/// hex, inf or nan — in (0, max].  Rejected like parse_u64: the reason
/// goes to stderr, the result is false, `*out` is untouched.
inline bool parse_decimal(const char* flag, const char* text, double max,
                          double* out) {
  constexpr const char* kDigits = "0123456789";
  const char* end = text + std::strspn(text, kDigits);
  if (*end == '.') end += 1 + std::strspn(end + 1, kDigits);
  if (*end == '\0' && std::strpbrk(text, kDigits) != nullptr) {
    const double value = std::strtod(text, nullptr);
    if (value > 0 && value <= max) {
      *out = value;
      return true;
    }
  }
  std::fprintf(stderr, "%s: expected a decimal number in (0, %g], got '%s'\n",
               flag, max, text);
  return false;
}

}  // namespace hn
