// Compile-time-gated failpoint harness for fault-injection testing.
//
// A failpoint is a named site at a hairy transition (epoch publish,
// writer-mutex handoff, GC horizon computation, thread pool dispatch).
// Production builds compile the sites away entirely; a build with
// -DPREFSQL_FAILPOINTS=ON (which defines PREFSQL_FAILPOINTS_ENABLED)
// evaluates each site against a registry armed either programmatically
// (failpoint::Arm) or through the environment:
//
//   PREFSQL_FAILPOINTS="epoch_publish=delay(5),writer_handoff=error"
//
// Actions:
//   error       the site reports Status::Internal("failpoint <name>"); sites
//               that cannot propagate a status ignore it (delay-only sites)
//   delay(N)    sleep N milliseconds — widens race windows for TSan/chaos
//   crash       std::abort() — crash-point testing for recovery tooling
//   off         disarmed (same as absent)
// An action may carry a hit limit: "delay(5)*3" fires three times, then
// disarms itself. Hit counts are queryable for test assertions.
//
// Site macros:
//   PSQL_FAILPOINT(name)          evaluate; discard any error action
//   PSQL_FAILPOINT_STATUS(name)   evaluate; `return` the error action's
//                                 Status from the enclosing function

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace prefsql {
namespace failpoint {

enum class ActionKind { kOff, kError, kDelay, kCrash };

struct Action {
  ActionKind kind = ActionKind::kOff;
  uint64_t delay_ms = 0;
  /// Remaining firings before self-disarm; 0 = unlimited.
  uint64_t max_hits = 0;
};

/// Arms `name` with `action` (replacing any previous arming).
void Arm(const std::string& name, Action action);
/// Arms from the textual form, e.g. "delay(5)*3". Returns false on a
/// malformed spec (the failpoint is left disarmed).
bool ArmFromSpec(const std::string& name, const std::string& spec);
void Disarm(const std::string& name);
void DisarmAll();
/// Times the named site fired (any action, including expired limits).
uint64_t HitCount(const std::string& name);
/// Names of every site evaluated at least once this process — the live
/// failpoint catalog, for coverage assertions.
std::vector<std::string> EvaluatedSites();

/// Evaluates the site: applies the armed action (sleeping, aborting, or
/// producing an error status) and returns OK when nothing fires. Parses
/// PREFSQL_FAILPOINTS from the environment on first call.
Status Evaluate(const char* name);

}  // namespace failpoint
}  // namespace prefsql

#if defined(PREFSQL_FAILPOINTS_ENABLED)
#define PSQL_FAILPOINT(name) ((void)::prefsql::failpoint::Evaluate(name))
#define PSQL_FAILPOINT_STATUS(name)                            \
  do {                                                         \
    ::prefsql::Status psql_fp_status_ =                        \
        ::prefsql::failpoint::Evaluate(name);                  \
    if (!psql_fp_status_.ok()) return psql_fp_status_;         \
  } while (false)
#else
#define PSQL_FAILPOINT(name) ((void)0)
#define PSQL_FAILPOINT_STATUS(name) ((void)0)
#endif
