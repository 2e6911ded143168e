// Lightweight contract macros in the spirit of the C++ Core Guidelines
// (I.6 "Prefer Expects()", I.8 "Prefer Ensures()").  Contract violations
// indicate programmer error and abort with a diagnostic; they are enabled
// in all build types because the simulator's correctness arguments lean on
// these invariants.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace ncdn::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line) {
  // abort() skips stdio's flush: without this, output a bench printed
  // before its gate fired is lost whenever stdout is not a terminal.
  std::fflush(stdout);
  std::fprintf(stderr, "ncdn: %s violation: (%s) at %s:%d\n", kind, expr, file,
               line);
  std::abort();
}

}  // namespace ncdn::detail

#define NCDN_EXPECTS(cond)                                               \
  ((cond) ? static_cast<void>(0)                                         \
          : ::ncdn::detail::contract_failure("precondition", #cond,      \
                                             __FILE__, __LINE__))

#define NCDN_ENSURES(cond)                                               \
  ((cond) ? static_cast<void>(0)                                         \
          : ::ncdn::detail::contract_failure("postcondition", #cond,     \
                                             __FILE__, __LINE__))

#define NCDN_ASSERT(cond)                                                \
  ((cond) ? static_cast<void>(0)                                         \
          : ::ncdn::detail::contract_failure("invariant", #cond,         \
                                             __FILE__, __LINE__))

// Audit-tier contracts: deep invariants whose checks are superlinear in
// the structures they guard (full RREF scans, graph connectivity, whole-
// state monotonicity).  Compiled in only under -DNCDN_AUDIT=ON; an audit
// build must be behaviorally identical to release apart from the extra
// reads — CI proves it by comparing sweep JSON byte-for-byte.  Keep audit
// expressions free of side effects and audit-only locals wrapped in
// NCDN_AUDIT_ONLY so the release build neither runs nor warns about them.
#ifdef NCDN_AUDIT_ENABLED
#define NCDN_AUDIT(cond)                                                 \
  ((cond) ? static_cast<void>(0)                                         \
          : ::ncdn::detail::contract_failure("audit invariant", #cond,   \
                                             __FILE__, __LINE__))
#define NCDN_AUDIT_ONLY(...) __VA_ARGS__
#else
#define NCDN_AUDIT(cond) \
  static_cast<void>(sizeof((cond) ? 1 : 0))  // unevaluated: names stay used
#define NCDN_AUDIT_ONLY(...)
#endif
