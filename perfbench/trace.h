// Traced run: spans around the benchmark's own calls into each module's
// public functions, and the per-request replay that decomposes one
// statement into those calls.
//
// Spans live in memory (name, start, end, parent, request id) and are
// written out once at exit. Nothing inside the program is instrumented:
// the replay re-runs, stage by stage, what the engine does for a
// statement — sql (tokenize, parse, normalize, parameterize), core
// (analyze, rewrite, BMO), preference (key build), engine (candidate feed,
// Aux-view DDL, the rewritten query) and net (row-page encode/decode) —
// next to one embedded execution of the whole statement, whose last_stats
// the replay is checked against.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/connection.h"
#include "util/status.h"

namespace perfbench {

/// One recorded span; `parent` is an index into the tracer's spans or -1.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its index.
  int32_t Begin(const char* name, uint64_t request, int32_t parent);
  /// Closes span `id`; returns its duration in ns.
  int64_t End(int32_t id);

  /// Sum of the durations of every span called `name`, in µs.
  double TotalUs(const std::string& name) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span with its self time (duration minus the time its
  /// direct children cover) as JSON.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A layer
/// a workload does not exercise reports 0.
struct LayerMetrics {
  double sql_tokenize_us = 0, sql_parse_us = 0, sql_normalize_us = 0,
         sql_parameterize_us = 0;
  double plan_cache_hit_ratio = 0, key_cache_hit_ratio = 0,
         skyline_cache_hit_ratio = 0;
  double bmo_ms = 0, bmo_comparisons = 0, bmo_comparisons_per_candidate = 0;
  double analyze_us = 0, rewrite_us = 0, statement_ms = 0,
         unattributed_ms = 0, engine_key_build_ms = 0, trace_overhead_pct = 0;
  double key_build_ms = 0, key_build_ns_per_row = 0;
  double candidates_ms = 0, candidate_rows = 0, aux_view_ddl_us = 0,
         rewritten_query_ms = 0;
  double insert_ms = 0, update_ms = 0, delete_ms = 0,
         skyline_maintenance_per_write = 0, mvcc_skipped_ratio = 0,
         resident_bytes_per_row = 0;
  double round_trip_us = 0, encode_row_page_us = 0, decode_row_page_us = 0,
         bytes_per_row = 0;
  double ref_loop_ms = 0;

  void Emit(RunReport* report) const;
};

/// How the measured workload reaches the engine, which decides which
/// layers a replayed request pays.
struct ReplayPlan {
  /// Non-empty: the workload prepares this text once and binds per request
  /// (sql layer paid once, amortized over the requests). Empty: every
  /// request is a text statement through the plan cache.
  std::string prepared_text;
  /// Rows travel to the client as ROW_PAGE frames.
  bool wire = false;
};

/// One replayed request: its literal text, plus the bindings of the
/// prepared form when the plan has one.
struct ReplayRequest {
  std::string sql;
  std::vector<std::pair<std::string, prefsql::Value>> binds;
};

/// Replays requests through the public module calls on an embedded
/// connection attached to the workload's engine.
class LayerReplay {
 public:
  LayerReplay(prefsql::Connection* conn, Tracer* tracer, ReplayPlan plan);

  /// Pauses the engine's background reclaimer, prepares the statement
  /// (prepared plans) and records the one-time sql spans. Call once first.
  prefsql::Status Start();

  /// Runs `requests` until they or `budget_s` run out, alternately
  /// untraced (the statement alone: the baseline of core.statement_ms) and
  /// traced. Fails when a call fails; cross-check mismatches are counted,
  /// not returned.
  prefsql::Status Replay(const std::vector<ReplayRequest>& requests,
                         double budget_s);

  /// Requests replayed, traced and untraced.
  size_t replayed() const { return requests_ + untraced_requests_; }
  /// Requests whose replayed dominance-test count differed from the
  /// engine's last_stats().bmo_comparisons, or whose rewritten query
  /// answered differently from the statement.
  size_t mismatches() const { return mismatches_; }

  /// Fills the sql, core, preference, engine, net-encode/decode and
  /// storage.mvcc_skipped_ratio fields from the replayed requests.
  void Fill(LayerMetrics* m) const;

 private:
  /// Executes the statement and its decomposition under spans.
  prefsql::Status Run(const ReplayRequest& request);
  prefsql::Result<prefsql::ResultTable> ExecuteStatement(
      const ReplayRequest& request);
  prefsql::Status ReplayDirect(const prefsql::SelectStmt& select,
                               const prefsql::PreferenceQueryStats& stats,
                               uint64_t id, int32_t root);
  prefsql::Status ReplayRewrite(const prefsql::SelectStmt& select,
                                const prefsql::ResultTable& answer,
                                uint64_t id, int32_t root);
  void ReplayWire(const prefsql::ResultTable& answer, uint64_t id,
                  int32_t root);

  prefsql::Connection* conn_;
  Tracer* tracer_;
  ReplayPlan plan_;
  std::optional<prefsql::PreparedStatement> prepared_;

  size_t requests_ = 0;  // traced
  size_t mismatches_ = 0;
  size_t plan_hits_ = 0, key_hits_ = 0, skyline_hits_ = 0;
  uint64_t engine_key_build_ns_ = 0;
  uint64_t replay_comparisons_ = 0;
  uint64_t bmo_candidates_ = 0;  // candidates keyed and run through BMO
  uint64_t candidate_rows_ = 0;
  uint64_t wire_rows_ = 0, wire_bytes_ = 0;
  double statement_ms_ = 0;
  double untraced_ms_ = 0;
  size_t untraced_requests_ = 0;
  double attributed_ms_ = 0;  // layer spans of the statement's own stages
  uint64_t mvcc_scanned0_ = 0, mvcc_skipped0_ = 0;
};

}  // namespace perfbench
