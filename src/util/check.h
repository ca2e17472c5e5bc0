// Precondition / invariant checking macros.
//
// MCE_CHECK* fire in all build types: they guard algorithmic invariants whose
// violation means the library has a bug (or the caller broke a documented
// precondition) — continuing would produce wrong cliques silently.
// MCE_DCHECK* compile away in NDEBUG builds and are for hot paths.

#ifndef MCE_UTIL_CHECK_H_
#define MCE_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace mce::internal {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line) {
  std::fprintf(stderr, "Check failed: %s at %s:%d\n", expr, file, line);
  std::abort();
}

}  // namespace mce::internal

#define MCE_CHECK(cond)                                         \
  do {                                                          \
    if (!(cond)) {                                              \
      ::mce::internal::CheckFailed(#cond, __FILE__, __LINE__);  \
    }                                                           \
  } while (false)

#define MCE_CHECK_EQ(a, b) MCE_CHECK((a) == (b))
#define MCE_CHECK_NE(a, b) MCE_CHECK((a) != (b))
#define MCE_CHECK_LT(a, b) MCE_CHECK((a) < (b))
#define MCE_CHECK_LE(a, b) MCE_CHECK((a) <= (b))
#define MCE_CHECK_GT(a, b) MCE_CHECK((a) > (b))
#define MCE_CHECK_GE(a, b) MCE_CHECK((a) >= (b))

#ifdef NDEBUG
#define MCE_DCHECK(cond) \
  do {                   \
  } while (false)
#else
#define MCE_DCHECK(cond) MCE_CHECK(cond)
#endif

#define MCE_DCHECK_EQ(a, b) MCE_DCHECK((a) == (b))
#define MCE_DCHECK_NE(a, b) MCE_DCHECK((a) != (b))
#define MCE_DCHECK_LT(a, b) MCE_DCHECK((a) < (b))
#define MCE_DCHECK_LE(a, b) MCE_DCHECK((a) <= (b))

#endif  // MCE_UTIL_CHECK_H_
