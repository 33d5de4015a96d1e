// Session: the per-client half of the shared-engine architecture.
//
// The paper's deployment (§3.1) puts one Preference SQL optimizer in front
// of one standard SQL database serving many clients. Mirroring that split,
// an Engine (core/engine.h) owns everything clients share — catalog,
// executor, plan cache — while a Session holds only what is
// private to one client: its knobs (ConnectionOptions, reachable from SQL
// via SET) and the statistics of its last preference query. Sessions are
// cheap; creating one per request is fine.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/bmo.h"
#include "core/quality.h"
#include "core/query_context.h"

namespace prefsql {

/// How preference queries are evaluated.
enum class EvaluationMode {
  /// Rewrite to standard SQL (Aux view + NOT EXISTS anti-join, §3.2) and run
  /// it on the engine — the commercial product's strategy. Falls back to
  /// the in-engine path when the preference is not rewritable.
  kRewrite,
  /// In-engine BmoOperator (`SET evaluation_mode = bnl`); the skyline
  /// algorithm it runs is ConnectionOptions::bmo_algorithm (BNL [BKS01] by
  /// default).
  kBlockNestedLoop,
};

const char* EvaluationModeToString(EvaluationMode m);

/// Per-session behaviour switches. All of these are also reachable from
/// SQL via `SET <knob> = <value>` (e.g. `SET bmo_threads = 4`,
/// `SET preference_pushdown = off`, `SET bmo_algorithm = sfs`).
struct ConnectionOptions {
  EvaluationMode mode = EvaluationMode::kRewrite;
  ButOnlyMode but_only_mode = ButOnlyMode::kPostFilter;
  /// Skyline algorithm of the in-engine path, including the rewrite
  /// fallback (`SET bmo_algorithm = naive|bnl|sfs|less`).
  BmoAlgorithm bmo_algorithm = BmoAlgorithm::kBlockNestedLoop;
  /// BNL window capacity (tuples); 0 = unbounded.
  size_t bnl_window = 0;
  /// Worker threads of the parallel partitioned BMO (direct path);
  /// 0/1 = serial.
  size_t bmo_threads = 0;
  /// Minimum candidate rows before BMO worker threads spin up.
  size_t parallel_min_rows = 4096;
  /// Algebraic preference pushdown below joins (direct path).
  bool preference_pushdown = true;
  /// Consult the engine's prepared-plan cache (skips lex/parse/analyze on
  /// repeated SELECT/EXPLAIN statements).
  bool plan_cache = true;
  /// Auto-parameterize constant literals of SELECT/EXPLAIN texts for
  /// plan-cache keying, so statements differing only in literal values
  /// share one prepared plan (values are re-injected at execute time).
  bool auto_parameterize = true;
  /// Retired and read by nothing (no `SET` knob reaches it): the dominance
  /// windows run the variant DominanceProgram::WindowVariant() picks, which
  /// the PREFSQL_SIMD environment variable controls. Kept only so existing
  /// callers that read it still compile.
  bool simd = true;
  /// Retired and read by nothing (no `SET` knob reaches them): the engine
  /// keeps no key or skyline cache. Kept only so existing callers
  /// (perfbench) still compile.
  bool key_cache = true;
  bool skyline_cache = true;
  /// Opportunistically reclaim superseded row-version payloads after DML
  /// (runs only when no reader holds the statement lock or a pinned
  /// snapshot; off keeps every version around, e.g. for debugging).
  bool mvcc_gc = true;
  /// Run the engine's background MVCC reclaimer (a low-priority engine
  /// thread walking all tables with a pin-aware horizon, bounding
  /// dead-version residency when the opportunistic post-DML sweep rarely
  /// wins its try-lock). Engine-wide: any session switching it off pauses
  /// the thread.
  bool mvcc_gc_background = true;
  /// Per-statement deadline in milliseconds; statements that exceed it
  /// return kTimeout promptly (cooperative checks every few hundred rows /
  /// dominance tests). 0 = no deadline.
  uint64_t statement_timeout_ms = 0;
  /// Per-statement memory budget in bytes for materializing buffers (packed
  /// key stores, sort/join/BMO staging). Exceeding it returns
  /// kResourceExhausted instead of OOM-ing. 0 = unlimited.
  uint64_t statement_memory_bytes = 0;
  /// Engine-wide memory budget in bytes shared by all sessions' statement
  /// buffers. Under pressure the engine sheds cold plan-cache entries and
  /// runs a pin-aware GC sweep before refusing a query. 0 = unlimited.
  uint64_t engine_memory_bytes = 0;
};

/// Statistics of the last executed preference query (plus, for any cached
/// statement, the cache outcome). The direct-path counters are valid even
/// when the query failed partway (the BMO operators flush their stats on
/// Close).
struct PreferenceQueryStats {
  bool was_preference_query = false;
  bool used_rewrite = false;
  bool rewrite_fallback = false;  // rewriter refused; BNL used instead
  size_t candidate_count = 0;     // rows after WHERE (direct path only)
  size_t result_count = 0;
  size_t bmo_comparisons = 0;     // dominance tests (direct path only)
  size_t bmo_partitions = 0;      // GROUPING partitions (direct path)
  size_t bmo_threads_used = 1;    // parallel pool width (1 = serial)
  std::string bmo_algorithm;      // skyline algorithm run (direct path)
  std::string bmo_kernel;         // dominance kernel (packed vs generic)
  std::string bmo_simd;           // block-walk variant (scalar/unrolled4/avx2)
  uint64_t bmo_key_build_ns = 0;  // packed key construction time
  size_t bmo_vector_leaves = 0;   // leaves keyed from column vectors
  bool used_pushdown = false;     // BMO prefilter pushed below the join
  std::string pushdown_detail;    // placement / rejection reason
  size_t prefilter_candidate_count = 0;  // rows into the pushed prefilter
  size_t prefilter_result_count = 0;     // rows surviving the prefilter
  // Plan-cache observability. The hit flag describes this statement; the
  // eviction counter is a cumulative engine-wide total snapshotted after it.
  bool plan_cache_hit = false;     // preparation reused (parse/analyze skipped)
  bool auto_parameterized = false; // literals lifted into plan-cache key holes
  size_t bound_parameters = 0;     // values injected into this execution
  uint64_t plan_cache_evictions = 0;
  // Retired and always false: the engine keeps no key or skyline cache.
  // Kept only so existing callers (perfbench) still compile.
  bool key_cache_hit = false;
  bool skyline_cache_hit = false;
  // MVCC observability. `pinned_epoch` is the snapshot this statement
  // pinned (0 = the statement did not pin — DML, DDL, rewrite mode); the
  // version/GC counters are cumulative engine-wide totals snapshotted
  // after the statement, like the eviction counter above.
  uint64_t pinned_epoch = 0;
  uint64_t mvcc_versions_scanned = 0;  // row versions visibility-tested
  uint64_t mvcc_versions_skipped = 0;  // versions invisible at the snapshot
  uint64_t mvcc_gc_cleared = 0;        // version payloads reclaimed by GC
  // Batch execution observability.
  uint64_t batches = 0;             // batches pulled at pipeline sinks
  uint64_t batch_rows = 0;          // rows carried by those batches
};

/// Copies the statement context's batch-execution counters into `stats`
/// (called where a statement's stats are finalized: Engine::FlushStats and
/// EXPLAIN).
inline void FlushBatchExecStats(const QueryContext* ctx,
                                PreferenceQueryStats& stats) {
  if (ctx == nullptr) return;
  stats.batches = ctx->batch_stats().batches;
  stats.batch_rows = ctx->batch_stats().batch_rows;
}

/// Per-client state over a (possibly shared) Engine.
class Session {
 public:
  Session() = default;
  explicit Session(ConnectionOptions options) : options_(options) {}

  ConnectionOptions& options() { return options_; }
  const ConnectionOptions& options() const { return options_; }

  const PreferenceQueryStats& last_stats() const { return last_stats_; }
  /// Engine-internal: the stats sink of the statement being executed.
  PreferenceQueryStats& mutable_last_stats() { return last_stats_; }

  /// Engine-internal: starts a new statement — resets last_stats and
  /// advances the epoch. A streaming Cursor records the epoch at open and
  /// flushes its final stats on Close only when no later statement has
  /// begun, so closing an old cursor never clobbers a newer statement's
  /// stats.
  PreferenceQueryStats& ResetStatsForNewStatement() {
    ++stats_epoch_;
    last_stats_ = PreferenceQueryStats{};
    return last_stats_;
  }
  uint64_t stats_epoch() const { return stats_epoch_; }

  /// Requests cooperative cancellation of this session's in-flight
  /// statement (and, for a streaming cursor, its remaining pulls). Safe
  /// from any thread — this is the client-side kill switch (shell Ctrl-C,
  /// server-side admin). A no-op when nothing is executing; the returned
  /// bool says whether a statement was actually signalled.
  bool CancelCurrent() {
    std::lock_guard<std::mutex> g(current_mu_);
    if (current_ == nullptr) return false;
    current_->Cancel();
    return true;
  }

  /// Engine-internal: publishes/retires the context of the statement being
  /// executed so CancelCurrent can reach it cross-thread. The engine keeps
  /// the context installed for the lifetime of a streaming cursor.
  void SetCurrentContext(std::shared_ptr<QueryContext> ctx) {
    std::lock_guard<std::mutex> g(current_mu_);
    current_ = std::move(ctx);
  }
  /// Engine-internal: retires `ctx` only if it is still the installed
  /// context (a newer statement may have replaced it already).
  void ClearCurrentContext(const QueryContext* ctx) {
    std::lock_guard<std::mutex> g(current_mu_);
    if (current_.get() == ctx) current_.reset();
  }

 private:
  ConnectionOptions options_;
  PreferenceQueryStats last_stats_;
  uint64_t stats_epoch_ = 0;
  std::mutex current_mu_;
  std::shared_ptr<QueryContext> current_;
};

}  // namespace prefsql
