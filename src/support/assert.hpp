// Lightweight always-on assertion macros for invariant checking.
//
// SP_ASSERT stays enabled in release builds: the partitioning algorithms in
// this library rely on structural invariants (CSR symmetry, matching
// validity, balance constraints) whose violation would silently corrupt
// results, so we prefer a crisp diagnostic over speed on the handful of
// checks that survive into hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace sp {

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "SP_ASSERT failed: %s at %s:%d%s%s\n", expr, file, line,
               msg ? " — " : "", msg ? msg : "");
  std::abort();
}

}  // namespace sp

#define SP_ASSERT(expr)                                              \
  do {                                                               \
    if (!(expr)) ::sp::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define SP_ASSERT_MSG(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) ::sp::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)
