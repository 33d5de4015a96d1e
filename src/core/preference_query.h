// In-engine evaluation of a preference query through the operator
// pipeline: the planner streams `FROM ... WHERE` candidates into a
// BmoOperator (skyline algorithm + GROUPING + BUT ONLY + quality columns),
// and the projection tail streams the maximal tuples out — no whole-relation
// materialization between scan and BMO.
//
// Two optimizations ride on this path:
//   * Algebraic preference pushdown (Planner::PlanCandidates): when the
//     preference's quality columns bind to one side of an equi-join, a
//     semi-skyline pre-filter (per join-key-group maxima) runs below the
//     join and the full BMO on top guarantees correctness.
//   * Parallel partitioned BMO (core/bmo_parallel.h): GROUPING partitions
//     and block-partitioned chunks evaluated on a thread pool.
//
// This path implements the same BMO semantics as the §3.2 rewrite but keeps
// everything inside the engine. It runs in `evaluation_mode = bnl` and as
// the fallback for preferences the rewriter cannot express (non-weak-order
// EXPLICIT); the engine picks between the two in one routine
// (Engine::PlanPreferenceLocked) for cursors and INSERT ... SELECT alike.

#pragma once

#include <memory>
#include <string>

#include "core/analyzer.h"
#include "core/bmo.h"
#include "core/bmo_operator.h"
#include "core/quality.h"
#include "core/session.h"
#include "engine/database.h"
#include "util/status.h"

namespace prefsql {

/// A compiled plan of a preference query — the in-engine BMO plan or the
/// §3.2 rewrite planned as a standard SELECT: the operator tree, the ASTs
/// it borrows, and (in-engine only) the stats sinks its BMO operators
/// flush on Close (valid even when the drain stops early or fails).
struct PreferencePlan {
  std::unique_ptr<BmoRunStats> bmo_stats;        ///< BMO block counters
  std::unique_ptr<BmoRunStats> prefilter_stats;  ///< pushdown pre-filter
  bool used_pushdown = false;
  std::string pushdown_detail;
  /// BUT ONLY rewritten against the augmented schema (referenced by the
  /// operators in `root`).
  ExprPtr owned_but_only;
  /// The query the operators in `root` were planned from (the bound query,
  /// or its §3.2 rewrite) and the compiled preference they read; declared
  /// before the root, which they outlive.
  std::shared_ptr<const SelectStmt> query;
  std::shared_ptr<const CompiledPreference> preference;
  /// The statement's scope (view materializations, subquery runner of the
  /// operators in `root`); declared before the root, which it outlives.
  std::unique_ptr<StatementScope> scope;
  /// Declared after the sinks it flushes into: destroyed first.
  OperatorPtr root;
};

/// Compiles `analyzed` into an in-engine plan without draining it, under
/// the session knobs in `options`. EXPLAIN passes `count_stats` false so
/// describing a plan leaves the executor's scan counters untouched.
Result<PreferencePlan> BuildPreferencePlan(
    Database& db, const AnalyzedPreferenceQuery& analyzed,
    const ConnectionOptions& options, bool count_stats = true);

}  // namespace prefsql
