// Strict number parsing for command-line flags.
//
// std::strtoull accepts a leading '-' (and wraps the value), stops
// silently at trailing junk, and turns garbage into 0.  The tools parse
// every numeric flag through parse_u64 instead, so a bad value is a
// usage error (exit 2) rather than a surprising campaign.
#pragma once

#include <cerrno>
#include <concepts>
#include <cstdio>
#include <cstdlib>
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

}  // namespace hn
