#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "core/analyzer.h"
#include "core/bmo.h"
#include "core/rewriter.h"
#include "net/protocol.h"
#include "preference/key_store.h"
#include "sql/lexer.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace perfbench {

using prefsql::Result;
using prefsql::ResultTable;
using prefsql::Status;

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
                   .count();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

int64_t Tracer::End(int32_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  return s.end_ns - s.start_ns;
}

double Tracer::TotalUs(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1000.0;
}

bool Tracer::Write(const std::string& path) const {
  // Children run strictly inside their parent and one after another, so a
  // parent's covered time is the sum of its direct children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(dur - child_ns[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void LayerMetrics::Emit(RunReport* r) const {
  r->Add("sql.tokenize_us", sql_tokenize_us, "us");
  r->Add("sql.parse_us", sql_parse_us, "us");
  r->Add("sql.normalize_us", sql_normalize_us, "us");
  r->Add("sql.parameterize_us", sql_parameterize_us, "us");
  r->Add("core.plan_cache_hit_ratio", plan_cache_hit_ratio, "ratio");
  r->Add("core.key_cache_hit_ratio", key_cache_hit_ratio, "ratio");
  r->Add("core.skyline_cache_hit_ratio", skyline_cache_hit_ratio, "ratio");
  r->Add("core.bmo_ms", bmo_ms, "ms");
  r->Add("core.bmo_comparisons", bmo_comparisons, "count");
  r->Add("core.bmo_comparisons_per_candidate", bmo_comparisons_per_candidate,
         "count/row");
  r->Add("core.analyze_us", analyze_us, "us");
  r->Add("core.rewrite_us", rewrite_us, "us");
  r->Add("core.statement_ms", statement_ms, "ms");
  r->Add("core.unattributed_ms", unattributed_ms, "ms");
  r->Add("core.engine_key_build_ms", engine_key_build_ms, "ms");
  r->Add("core.trace_overhead_pct", trace_overhead_pct, "%");
  r->Add("preference.key_build_ms", key_build_ms, "ms");
  r->Add("preference.key_build_ns_per_row", key_build_ns_per_row, "ns/row");
  r->Add("engine.candidates_ms", candidates_ms, "ms");
  r->Add("engine.candidate_rows", candidate_rows, "count");
  r->Add("engine.aux_view_ddl_us", aux_view_ddl_us, "us");
  r->Add("engine.rewritten_query_ms", rewritten_query_ms, "ms");
  r->Add("storage.insert_ms", insert_ms, "ms");
  r->Add("storage.update_ms", update_ms, "ms");
  r->Add("storage.delete_ms", delete_ms, "ms");
  r->Add("storage.skyline_maintenance_per_write",
         skyline_maintenance_per_write, "count/write");
  r->Add("storage.mvcc_skipped_ratio", mvcc_skipped_ratio, "ratio");
  r->Add("storage.resident_bytes_per_row", resident_bytes_per_row, "B/row");
  r->Add("net.round_trip_us", round_trip_us, "us");
  r->Add("net.encode_row_page_us", encode_row_page_us, "us");
  r->Add("net.decode_row_page_us", decode_row_page_us, "us");
  r->Add("net.bytes_per_row", bytes_per_row, "B/row");
  r->Add("host.ref_loop_ms", ref_loop_ms, "ms");
}

LayerReplay::LayerReplay(prefsql::Connection* conn, Tracer* tracer,
                         ReplayPlan plan)
    : conn_(conn), tracer_(tracer), plan_(std::move(plan)) {}

Status LayerReplay::Start() {
  // The replay reaches the catalog and executor without the engine's
  // statement lock; pause the background reclaimer so nothing else does.
  PSQL_RETURN_IF_ERROR(
      conn_->Execute("SET mvcc_gc_background = off").status());
  const auto& mvcc = conn_->database().executor().stats().mvcc;
  mvcc_scanned0_ = mvcc.versions_scanned.load();
  mvcc_skipped0_ = mvcc.versions_skipped.load();
  if (plan_.prepared_text.empty()) return Status::OK();
  // The sql layer a prepared workload pays once per client, at PREPARE.
  const std::string& text = plan_.prepared_text;
  const int32_t root = tracer_->Begin("prepare", 0, -1);
  int32_t s = tracer_->Begin("sql.normalize", 0, root);
  (void)prefsql::NormalizeSql(text);
  tracer_->End(s);
  s = tracer_->Begin("sql.parameterize", 0, root);
  (void)prefsql::ParameterizeSql(text);
  tracer_->End(s);
  s = tracer_->Begin("sql.tokenize", 0, root);
  auto tokens = prefsql::Tokenize(text);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(tokens.status());
  s = tracer_->Begin("sql.parse", 0, root);
  auto parsed = prefsql::ParseStatement(text);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(parsed.status());
  tracer_->End(root);
  PSQL_ASSIGN_OR_RETURN(auto stmt, conn_->Prepare(text));
  prepared_.emplace(std::move(stmt));
  return Status::OK();
}

Result<ResultTable> LayerReplay::ExecuteStatement(
    const ReplayRequest& request) {
  if (!prepared_.has_value()) return conn_->Execute(request.sql);
  for (const auto& [name, value] : request.binds) {
    PSQL_RETURN_IF_ERROR(prepared_->Bind(name, value));
  }
  return prepared_->Execute();
}

Status LayerReplay::Replay(const std::vector<ReplayRequest>& requests,
                           double budget_s) {
  // Even requests run untraced (the statement alone), odd ones traced:
  // interleaved, both halves meet the same cache and host state, so their
  // statement times compare.
  const auto t0 = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % 2 == 0) {
      const auto s0 = Clock::now();
      auto answer = ExecuteStatement(requests[i]);
      untraced_ms_ += MsSince(s0);
      PSQL_RETURN_IF_ERROR(answer.status());
      ++untraced_requests_;
    } else {
      PSQL_RETURN_IF_ERROR(Run(requests[i]));
    }
    if (MsSince(t0) > budget_s * 1000.0) break;
  }
  return Status::OK();
}

Status LayerReplay::Run(const ReplayRequest& request) {
  const uint64_t id = ++requests_;
  const int32_t root = tracer_->Begin("request", id, -1);
  int64_t attributed_ns = 0;

  // sql: the text path normalizes and parameterizes for the plan-cache key
  // on every request; tokenize and parse are the miss path's cost.
  std::optional<prefsql::Statement> parsed;
  if (plan_.prepared_text.empty()) {
    int32_t s = tracer_->Begin("sql.normalize", id, root);
    (void)prefsql::NormalizeSql(request.sql);
    attributed_ns += tracer_->End(s);
    s = tracer_->Begin("sql.parameterize", id, root);
    (void)prefsql::ParameterizeSql(request.sql, /*collapse_in_lists=*/true);
    attributed_ns += tracer_->End(s);
    s = tracer_->Begin("sql.tokenize", id, root);
    auto tokens = prefsql::Tokenize(request.sql);
    attributed_ns += tracer_->End(s);
    PSQL_RETURN_IF_ERROR(tokens.status());
    s = tracer_->Begin("sql.parse", id, root);
    auto stmt = prefsql::ParseStatement(request.sql);
    attributed_ns += tracer_->End(s);
    PSQL_RETURN_IF_ERROR(stmt.status());
    parsed.emplace(std::move(*stmt));
  } else {
    PSQL_ASSIGN_OR_RETURN(auto stmt, prefsql::ParseStatement(request.sql));
    parsed.emplace(std::move(stmt));
  }

  int32_t s = tracer_->Begin("core.statement", id, root);
  auto answer = ExecuteStatement(request);
  const int64_t statement_ns = tracer_->End(s);
  PSQL_RETURN_IF_ERROR(answer.status());
  statement_ms_ += static_cast<double>(statement_ns) / 1e6;
  const prefsql::PreferenceQueryStats stats = conn_->last_stats();
  plan_hits_ += stats.plan_cache_hit ? 1 : 0;
  key_hits_ += stats.key_cache_hit ? 1 : 0;
  skyline_hits_ += stats.skyline_cache_hit ? 1 : 0;
  engine_key_build_ns_ += stats.bmo_key_build_ns;

  const size_t spans_before = tracer_->spans().size();
  const prefsql::SelectStmt& select = *parsed->select;
  if (stats.used_rewrite) {
    PSQL_RETURN_IF_ERROR(ReplayRewrite(select, *answer, id, root));
  } else if (stats.was_preference_query && !stats.skyline_cache_hit) {
    PSQL_RETURN_IF_ERROR(ReplayDirect(select, stats, id, root));
  } else if (stats.bmo_comparisons != 0) {
    ++mismatches_;  // a cache-served answer claimed dominance tests
  }
  for (size_t i = spans_before; i < tracer_->spans().size(); ++i) {
    const Span& span = tracer_->spans()[i];
    if (span.parent == root) attributed_ns += span.end_ns - span.start_ns;
  }
  attributed_ms_ += static_cast<double>(attributed_ns) / 1e6;
  if (plan_.wire) ReplayWire(*answer, id, root);
  tracer_->End(root);
  return Status::OK();
}

Status LayerReplay::ReplayDirect(const prefsql::SelectStmt& select,
                                 const prefsql::PreferenceQueryStats& stats,
                                 uint64_t id, int32_t root) {
  int32_t s = tracer_->Begin("core.analyze", id, root);
  auto analyzed = prefsql::AnalyzePreferenceQuery(select);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(analyzed.status());

  s = tracer_->Begin("engine.candidates", id, root);
  auto candidates = conn_->database().executor().MaterializeCandidates(select);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(candidates.status());
  const size_t n = candidates->num_rows();
  candidate_rows_ += n;

  const prefsql::CompiledPreference& pref = analyzed->preference();
  prefsql::KeyStore keys(pref.num_leaves());
  keys.Reserve(n);
  s = tracer_->Begin("preference.key_build", id, root);
  Status keyed = Status::OK();
  for (const prefsql::Row& row : candidates->rows()) {
    keyed = pref.AppendKey(candidates->schema(), row, &keys);
    if (!keyed.ok()) break;
  }
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(keyed);

  // The engine's serial BNL over the candidates in scan order: the same
  // inputs in the same order must cost the same dominance tests.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  prefsql::BmoOptions options;
  options.algorithm = prefsql::BmoAlgorithm::kBlockNestedLoop;
  options.bnl_window = conn_->options().bnl_window;
  options.simd = conn_->options().simd;
  prefsql::BmoStats bmo;
  s = tracer_->Begin("core.bmo", id, root);
  const std::vector<size_t> maximal =
      prefsql::ComputeBmo(pref, keys, order, options, &bmo);
  tracer_->End(s);
  replay_comparisons_ += bmo.comparisons;
  bmo_candidates_ += n;
  if (bmo.comparisons != stats.bmo_comparisons ||
      maximal.size() != stats.result_count) {
    ++mismatches_;
  }
  return Status::OK();
}

Status LayerReplay::ReplayRewrite(const prefsql::SelectStmt& select,
                                  const ResultTable& answer, uint64_t id,
                                  int32_t root) {
  int32_t s = tracer_->Begin("core.analyze", id, root);
  auto analyzed = prefsql::AnalyzePreferenceQuery(select);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(analyzed.status());

  prefsql::Database& db = conn_->database();
  s = tracer_->Begin("engine.candidates", id, root);
  auto candidates = db.executor().MaterializeCandidates(select);
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(candidates.status());
  candidate_rows_ += candidates->num_rows();

  // The rewriter needs the candidate relation's column names; probe them
  // the way the engine does, with a FALSE predicate (not a layer span).
  prefsql::SelectStmt probe;
  probe.items.push_back({prefsql::Expr::MakeStar(), ""});
  for (const auto& table : select.from) probe.from.push_back(table->Clone());
  probe.where = prefsql::Expr::MakeLiteral(prefsql::Value::Bool(false));
  PSQL_ASSIGN_OR_RETURN(ResultTable probed, db.ExecuteSelect(probe));

  s = tracer_->Begin("core.rewrite", id, root);
  auto rewritten = prefsql::RewritePreferenceQuery(
      *analyzed, probed.schema().Names(), conn_->options().but_only_mode,
      "perfbench_aux_" + std::to_string(id));
  tracer_->End(s);
  PSQL_RETURN_IF_ERROR(rewritten.status());

  // Transient views must not bump the catalog version (the engine's own
  // rewrite path suppresses it too), or every later statement would miss
  // the plan cache.
  db.catalog().set_suppress_version_bumps(true);
  Status status = Status::OK();
  s = tracer_->Begin("engine.aux_view_ddl", id, root);
  for (const auto& st : rewritten->setup) {
    auto r = db.ExecuteStatement(st);
    if (!r.ok()) status = r.status();
  }
  tracer_->End(s);
  std::optional<Result<ResultTable>> rows;
  if (status.ok()) {
    s = tracer_->Begin("engine.rewritten_query", id, root);
    rows.emplace(db.ExecuteSelect(*rewritten->query));
    tracer_->End(s);
  }
  s = tracer_->Begin("engine.aux_view_ddl", id, root);
  for (const auto& st : rewritten->teardown) {
    auto r = db.ExecuteStatement(st);
    if (!r.ok() && status.ok()) status = r.status();
  }
  tracer_->End(s);
  db.catalog().set_suppress_version_bumps(false);
  PSQL_RETURN_IF_ERROR(status);
  PSQL_RETURN_IF_ERROR(rows->status());

  auto ids = [](const ResultTable& t) {
    std::vector<int64_t> out;
    for (const auto& row : t.rows()) out.push_back(row[0].AsInt());
    return Sorted(std::move(out));
  };
  if (ids(**rows) != ids(answer)) ++mismatches_;
  return Status::OK();
}

void LayerReplay::ReplayWire(const ResultTable& answer, uint64_t id,
                             int32_t root) {
  // Pages of the server's default FETCH size, as RemoteCursor receives them.
  constexpr size_t kPageRows = 512;
  const auto& rows = answer.rows();
  size_t begin = 0;
  do {
    const size_t end = std::min(rows.size(), begin + kPageRows);
    std::vector<prefsql::Row> page(rows.begin() + begin, rows.begin() + end);
    int32_t s = tracer_->Begin("net.encode_row_page", id, root);
    std::vector<uint8_t> frame =
        prefsql::net::EncodeRowPage(end == rows.size(), page);
    tracer_->End(s);
    wire_bytes_ += frame.size();
    s = tracer_->Begin("net.decode_row_page", id, root);
    prefsql::net::FrameBuffer buffer;
    buffer.Append(frame.data(), frame.size());
    auto popped = buffer.Next();
    if (popped.ok() && popped->has_value()) {
      (void)prefsql::net::DecodeRowPage((*popped)->payload,
                                        answer.num_columns());
    }
    tracer_->End(s);
    begin = end;
  } while (begin < rows.size());
  wire_rows_ += rows.size();
}

void LayerReplay::Fill(LayerMetrics* m) const {
  if (requests_ == 0) return;
  const double n = static_cast<double>(requests_);
  m->sql_tokenize_us = tracer_->TotalUs("sql.tokenize") / n;
  m->sql_parse_us = tracer_->TotalUs("sql.parse") / n;
  m->sql_normalize_us = tracer_->TotalUs("sql.normalize") / n;
  m->sql_parameterize_us = tracer_->TotalUs("sql.parameterize") / n;
  m->plan_cache_hit_ratio = plan_hits_ / n;
  m->key_cache_hit_ratio = key_hits_ / n;
  m->skyline_cache_hit_ratio = skyline_hits_ / n;
  m->bmo_ms = tracer_->TotalUs("core.bmo") / 1000.0 / n;
  m->bmo_comparisons = static_cast<double>(replay_comparisons_) / n;
  m->bmo_comparisons_per_candidate =
      bmo_candidates_ == 0 ? 0.0
                           : static_cast<double>(replay_comparisons_) /
                                 static_cast<double>(bmo_candidates_);
  m->analyze_us = tracer_->TotalUs("core.analyze") / n;
  m->rewrite_us = tracer_->TotalUs("core.rewrite") / n;
  m->statement_ms = statement_ms_ / n;
  m->unattributed_ms = (statement_ms_ - attributed_ms_) / n;
  m->engine_key_build_ms = static_cast<double>(engine_key_build_ns_) / 1e6 / n;
  if (untraced_requests_ > 0 && untraced_ms_ > 0) {
    m->trace_overhead_pct =
        (m->statement_ms / (untraced_ms_ / untraced_requests_) - 1.0) * 100.0;
  }
  const double key_build_us = tracer_->TotalUs("preference.key_build");
  m->key_build_ms = key_build_us / 1000.0 / n;
  m->key_build_ns_per_row =
      bmo_candidates_ == 0 ? 0.0 : key_build_us * 1000.0 / bmo_candidates_;
  m->candidates_ms = tracer_->TotalUs("engine.candidates") / 1000.0 / n;
  m->candidate_rows = static_cast<double>(candidate_rows_) / n;
  m->aux_view_ddl_us = tracer_->TotalUs("engine.aux_view_ddl") / n;
  m->rewritten_query_ms =
      tracer_->TotalUs("engine.rewritten_query") / 1000.0 / n;
  m->encode_row_page_us = tracer_->TotalUs("net.encode_row_page") / n;
  m->decode_row_page_us = tracer_->TotalUs("net.decode_row_page") / n;
  m->bytes_per_row =
      wire_rows_ == 0 ? 0.0
                      : static_cast<double>(wire_bytes_) / wire_rows_;
  const auto& mvcc = conn_->database().executor().stats().mvcc;
  const uint64_t scanned = mvcc.versions_scanned.load() - mvcc_scanned0_;
  const uint64_t skipped = mvcc.versions_skipped.load() - mvcc_skipped0_;
  m->mvcc_skipped_ratio =
      scanned == 0 ? 0.0 : static_cast<double>(skipped) / scanned;
}

}  // namespace perfbench
