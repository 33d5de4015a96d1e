// Direct (in-engine) evaluation of a preference query through the operator
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
// everything inside the engine — it is both the fallback for preferences the
// rewriter cannot express (non-weak-order EXPLICIT) and the baseline the
// algorithm benchmarks compare against.

#pragma once

#include <memory>
#include <string>

#include "core/analyzer.h"
#include "core/bmo.h"
#include "core/bmo_operator.h"
#include "core/quality.h"
#include "engine/database.h"
#include "types/result_table.h"
#include "util/status.h"

namespace prefsql {

/// Options of the direct evaluation path.
struct DirectEvalOptions {
  BmoOptions bmo;
  ButOnlyMode but_only_mode = ButOnlyMode::kPostFilter;
  /// Worker threads for the parallel partitioned BMO; 0/1 = serial.
  size_t threads = 0;
  /// Minimum candidate rows before worker threads spin up.
  size_t parallel_min_rows = 4096;
  /// Attempt the algebraic preference pushdown below joins.
  bool pushdown = true;
  /// Engine skyline/key cache (not owned; nullptr = off). Consulted when
  /// the candidate stream is a bare scan of one base table (no WHERE) —
  /// the packed keys are then a pure function of (preference, table
  /// contents) and are reused across queries and sessions.
  SkylineCache* key_cache = nullptr;
  /// Serve eligible bare-table queries straight from a cached skyline
  /// position list, and publish computed skylines into the cache.
  bool skyline_cache = true;
};

/// Observability of one direct evaluation (benches, Connection stats).
struct DirectEvalStats {
  BmoStats bmo;                ///< dominance tests, BMO block + pre-filter
  size_t candidate_count = 0;  ///< rows after WHERE, before the BMO block
  size_t partitions = 0;       ///< GROUPING partitions of the BMO block
  size_t threads_used = 1;     ///< parallel pool width (1 = serial)
  bool used_pushdown = false;  ///< semi-skyline pre-filter below the join
  std::string pushdown_detail; ///< placement / rejection reason
  BmoRunStats prefilter;       ///< counters of the pushed-down pre-filter
  bool key_cache_eligible = false;  ///< run was keyed against the key cache
  bool key_cache_hit = false;  ///< packed keys reused from the key cache
  std::string key_cache_detail;  ///< eligibility / rejection reason
  bool skyline_cache_hit = false;  ///< served from cached skyline positions
  std::string skyline_cache_detail;  ///< serve eligibility / rejection
};

/// A compiled direct-evaluation plan: the operator tree plus the stats
/// sinks its BMO operators flush on Close (valid even when the drain stops
/// early or fails).
struct PreferencePlan {
  std::unique_ptr<BmoRunStats> bmo_stats;        ///< BMO block counters
  std::unique_ptr<BmoRunStats> prefilter_stats;  ///< pushdown pre-filter
  bool used_pushdown = false;
  std::string pushdown_detail;
  bool key_cache_eligible = false;
  std::string key_cache_detail;
  /// The plan replays a cached skyline position list instead of running
  /// the BMO (bmo_stats then stays zeroed).
  bool skyline_cache_hit = false;
  std::string skyline_cache_detail;
  /// BUT ONLY rewritten against the augmented schema (referenced by the
  /// operators in `root`).
  ExprPtr owned_but_only;
  /// The statement's scope (view materializations, subquery runner of the
  /// operators in `root`); declared before the root, which it outlives.
  std::unique_ptr<StatementScope> scope;
  /// Declared after the sinks it flushes into: destroyed first.
  OperatorPtr root;
};

/// Compiles `analyzed` into an executable plan without draining it
/// (EXPLAIN uses this to describe the pushdown decision, with
/// `count_stats` false so describing a plan leaves the executor's scan
/// counters untouched).
Result<PreferencePlan> BuildPreferencePlan(
    Database& db, const AnalyzedPreferenceQuery& analyzed,
    const DirectEvalOptions& options = {}, bool count_stats = true);

/// Executes `analyzed` against `db` and returns the BMO result. `stats` is
/// populated even when execution fails partway.
Result<ResultTable> ExecutePreferenceQueryDirect(
    Database& db, const AnalyzedPreferenceQuery& analyzed,
    const DirectEvalOptions& options = {}, DirectEvalStats* stats = nullptr);

}  // namespace prefsql
