#include "core/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "core/analyzer.h"
#include "core/rewriter.h"
#include "sql/normalize.h"
#include "sql/parameters.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace prefsql {

const char* EvaluationModeToString(EvaluationMode m) {
  switch (m) {
    case EvaluationMode::kRewrite:
      return "rewrite";
    case EvaluationMode::kBlockNestedLoop:
      return "bnl";
  }
  return "?";
}

namespace {

// Name under which an executed rewrite binds its Aux view (and the BUT
// ONLY pre-filter view, this name + "_f") as statement-local views. It holds
// a double quote, which no identifier the lexer produces can, so no user
// object collides with it or is shadowed by it.
constexpr char kLocalAuxName[] = "\"aux\"";

// Name of the Aux view in the script EXPLAIN and RewriteToSql print.
constexpr char kPrintedAuxName[] = "Aux";

// The rewrite's CREATE VIEW setup as statement-local views of its query.
LocalViews LocalViewsOf(const RewriteOutput& rewritten) {
  LocalViews views;
  for (const Statement& st : rewritten.setup) {
    views.emplace_back(st.name, st.select);
  }
  return views;
}

bool IsCacheableKind(StatementKind kind) {
  return kind == StatementKind::kSelect || kind == StatementKind::kExplain;
}

// Case-insensitive keyword prefix test on normalized (case-preserved) text.
bool StartsWithKeyword(const std::string& text, std::string_view keyword) {
  if (text.size() < keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

Status UnboundParametersError() {
  return Status::BindError(
      "statement has unbound parameter(s); prepare it and bind values "
      "(Connection::Prepare)");
}

// Retires the statement's QueryContext from its session on scope exit —
// the default for materialized results and every error path. A streaming
// cursor calls Release() instead and retires the context itself on Close
// (the context must stay reachable by Session::CancelCurrent while the
// client is still pulling). ClearCurrentContext is conditional on identity,
// so a double clear (cursor Close then guard) is a harmless no-op.
class SessionContextClearGuard {
 public:
  SessionContextClearGuard(Session* session,
                           std::shared_ptr<const QueryContext> ctx)
      : session_(session), ctx_(std::move(ctx)) {}
  ~SessionContextClearGuard() {
    if (session_ != nullptr) session_->ClearCurrentContext(ctx_.get());
  }
  SessionContextClearGuard(const SessionContextClearGuard&) = delete;
  SessionContextClearGuard& operator=(const SessionContextClearGuard&) =
      delete;

  void Release() { session_ = nullptr; }

 private:
  Session* session_;
  std::shared_ptr<const QueryContext> ctx_;
};

}  // namespace

// ===========================================================================
// Engine lifetime: background MVCC reclaimer
// ===========================================================================

Engine::Engine() {
  gc_thread_ = std::thread([this] { BackgroundGcLoop(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> g(gc_mu_);
    gc_stop_ = true;
  }
  gc_cv_.notify_one();
  if (gc_thread_.joinable()) gc_thread_.join();
}

void Engine::BackgroundGcLoop() {
  // The period bounds dead-version residency under reader-heavy load where
  // the opportunistic post-DML sweep rarely wins its try-lock; short enough
  // that a momentary gap between readers is usually caught, long enough to
  // be invisible in profiles when the engine is idle.
  constexpr auto kPeriod = std::chrono::milliseconds(20);
  std::unique_lock<std::mutex> sleep_lock(gc_mu_);
  while (!gc_stop_) {
    gc_cv_.wait_for(sleep_lock, kPeriod,
                    [this] { return gc_stop_ || gc_kick_; });
    if (gc_stop_) break;
    const bool kicked = gc_kick_;
    gc_kick_ = false;
    // A memory-pressure kick sweeps even while the knob is off — relief
    // explicitly asked for reclaimable bytes; the timer respects the knob.
    if (!kicked && !gc_background_enabled_.load(std::memory_order_relaxed)) {
      continue;
    }
    sleep_lock.unlock();
    {
      // Same safety argument as TryCollectGarbage: pins are only ever taken
      // under the shared DDL lock, so winning it exclusively proves no
      // reader and no pin exists — every version dead at or before the
      // horizon is unreachable forever. Losing the race costs nothing; the
      // timer retries.
      std::unique_lock<std::shared_mutex> lock(mutex_, std::try_to_lock);
      if (lock.owns_lock()) {
        CollectGarbageLocked(nullptr);
        background_gc_passes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sleep_lock.lock();
  }
}

uint64_t Engine::CollectGarbageLocked(Table* only) {
#if defined(PREFSQL_FAILPOINTS_ENABLED)
  // Injected fault: the horizon computation "fails" — skip this sweep (the
  // background reclaimer or a later write retries).
  if (!failpoint::Evaluate("gc_horizon").ok()) return 0;
#endif
  EpochManager& epochs = db_.catalog().epochs();
  const uint64_t horizon = epochs.MinPinnedOr(epochs.current());
  uint64_t freed = 0;
  if (only != nullptr) {
    freed = only->CollectGarbage(horizon);
  } else {
    for (const auto& name : db_.catalog().TableNames()) {
      auto table = db_.catalog().GetTable(name);
      if (table.ok()) freed += (*table)->CollectGarbage(horizon);
    }
  }
  if (freed > 0) db_.executor().CountGarbageCollected(freed);
  return freed;
}

void Engine::RelieveMemoryPressure(uint64_t /*requested_bytes*/) {
  // Shed roughly a quarter of the plan cache's resident entries, cold end
  // first. This frees their heap memory immediately — though not
  // budget-charged bytes, which only return to the budget when their
  // statements finish — and the kicked reclaimer frees superseded version
  // payloads as soon as it wins the DDL lock. Only after both does a
  // retried charge fail the query with kResourceExhausted.
  plan_cache_.Shed(std::max<size_t>(4, plan_cache_.size() / 4));
  {
    std::lock_guard<std::mutex> g(gc_mu_);
    gc_kick_ = true;
  }
  gc_cv_.notify_one();
}

std::shared_ptr<QueryContext> Engine::ArmStatementContext(Session& session) {
  auto ctx = std::make_shared<QueryContext>();
  const ConnectionOptions& o = session.options();
  ctx->set_deadline_ms(o.statement_timeout_ms);
  ctx->ArmStatementBudget(o.statement_memory_bytes);
  ctx->set_engine_budget(&engine_budget_);
  ctx->set_pressure_relief(
      [this](uint64_t bytes) { RelieveMemoryPressure(bytes); });
  session.SetCurrentContext(ctx);
  return ctx;
}

// ===========================================================================
// Text entry points: Execute / OpenCursor / Prepare / ExecuteScript
// ===========================================================================

Result<ResultTable> Engine::Execute(Session& session, const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Cursor cursor, OpenCursor(session, sql));
  return DrainCursor(cursor);
}

Result<Cursor> Engine::OpenCursor(Session& session, const std::string& sql,
                                  std::shared_ptr<Engine> keepalive) {
  // IN lists collapse to one arity-normalized placeholder here (re-expanded
  // at bind time); Prepare keeps placeholders 1:1 with values.
  PSQL_ASSIGN_OR_RETURN(PreparedText text,
                        PrepareText(session, sql, /*collapse_in_lists=*/true));
  if (text.plan != nullptr) {
    return OpenPreparedCursor(session, std::move(text.plan),
                              text.plan_cache_hit, &text.values,
                              text.auto_parameterized, std::move(keepalive),
                              &text.widths);
  }
  PSQL_ASSIGN_OR_RETURN(ResultTable result,
                        ExecuteStatement(session, *text.stmt));
  return MaterializedCursor(std::move(result), &session, std::move(keepalive));
}

Result<PreparedStatement> Engine::Prepare(Session& session,
                                          const std::string& sql,
                                          std::shared_ptr<Engine> keepalive) {
  // Publish the preparation now: the very first Execute is warm, and
  // parse/analyze errors surface at Prepare time, as a driver expects.
  PSQL_ASSIGN_OR_RETURN(PreparedText text,
                        PrepareText(session, sql, /*collapse_in_lists=*/false));
  ParameterSignature signature = text.plan != nullptr
                                     ? text.plan->params
                                     : CollectParameters(*text.stmt);
  PreparedStatement prepared(this, std::move(keepalive), &session,
                             std::move(text.stmt), std::move(text.plan),
                             std::move(text.key_text), std::move(signature));
  if (text.auto_parameterized) {
    if (text.values.size() != prepared.signature_.count()) {
      return Status::Internal("auto-parameterization arity mismatch");
    }
    // Pre-bind the lifted literals: executing without further Bind calls
    // runs the statement exactly as written. Constraint violations report
    // as parse errors — the value came from the statement text itself.
    for (size_t i = 0; i < text.values.size(); ++i) {
      PSQL_RETURN_IF_ERROR(CheckParamConstraint(
          text.values[i], prepared.signature_.constraints[i], i,
          /*parse_errors=*/true));
      prepared.values_[i] = std::move(text.values[i]);
      prepared.bound_[i] = true;
    }
    prepared.auto_parameterized_ = true;
  }
  return prepared;
}

Result<ResultTable> Engine::ExecuteScript(Session& session,
                                          const std::string& sql) {
  ResultTable last;
  PSQL_RETURN_IF_ERROR(ExecuteScript(
      session, sql,
      [&last](size_t, const Statement&, ResultTable result) {
        last = std::move(result);
        return Status::OK();
      }));
  return last;
}

Status Engine::ExecuteScript(Session& session, const std::string& sql,
                             const ScriptResultCallback& on_result) {
  PSQL_ASSIGN_OR_RETURN(auto stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  for (size_t i = 0; i < stmts.size(); ++i) {
    PSQL_ASSIGN_OR_RETURN(ResultTable result,
                          ExecuteStatement(session, stmts[i]));
    if (on_result) {
      PSQL_RETURN_IF_ERROR(on_result(i, stmts[i], std::move(result)));
    }
  }
  return Status::OK();
}

// ===========================================================================
// Statement execution
// ===========================================================================

Result<ResultTable> Engine::ExecuteStatement(Session& session,
                                             const Statement& stmt) {
  // Pre-parsed statements bypass the binding layer; reject holes before
  // one reaches an operator (drivers get a stable kBindError).
  if (StatementHasParameters(stmt)) return UnboundParametersError();

  if (IsCacheableKind(stmt.kind) && stmt.select != nullptr) {
    // A pre-parsed statement has no text to key by: prepare it afresh and
    // drain the cursor (which resets the stats and arms the context).
    PSQL_ASSIGN_OR_RETURN(auto prepared,
                          BuildPreparation(stmt.kind, stmt.select));
    PSQL_ASSIGN_OR_RETURN(
        Cursor cursor,
        OpenPreparedCursor(session, std::move(prepared),
                           /*plan_cache_hit=*/false, /*params=*/nullptr,
                           /*auto_parameterized=*/false,
                           /*keepalive=*/nullptr));
    return DrainCursor(cursor);
  }

  session.ResetStatsForNewStatement();
  if (stmt.kind == StatementKind::kSet) {
    return ExecuteSet(session, stmt);
  }

  // Arm the statement's deadline/cancel/budget context: the DML, DDL and
  // INSERT ... SELECT PREFERRING paths below run under it, so writes honor
  // the deadline and CancelCurrent too.
  std::shared_ptr<QueryContext> qctx = ArmStatementContext(session);
  ScopedQueryContext qscope(qctx.get());
  SessionContextClearGuard clear_guard(&session, qctx);

  // DML appends row versions: it runs under the *shared* DDL lock (readers
  // streaming at pinned snapshots are never blocked) with DML statements
  // serialized against each other by the writer mutex.
  if (stmt.kind == StatementKind::kInsert ||
      stmt.kind == StatementKind::kUpdate ||
      stmt.kind == StatementKind::kDelete) {
    std::shared_lock<std::shared_mutex> ddl(mutex_);
    Result<ResultTable> result = [&]() -> Result<ResultTable> {
      // Fault-injection site: the handoff to the writer mutex — a delay
      // here widens the window in which readers stream against the
      // pre-statement snapshot while this writer is queued.
      PSQL_FAILPOINT_STATUS("writer_handoff");
      std::lock_guard<std::mutex> writer(writer_mutex_);
      // INSERT ... SELECT with a PREFERRING clause (§2.2.5): drain the
      // preference plan at the current epoch, which no other writer can
      // move now, then bulk-insert the BMO rows. A failed evaluation has
      // written nothing.
      std::optional<ResultTable> rows;
      if (stmt.kind == StatementKind::kInsert && stmt.select != nullptr &&
          stmt.select->IsPreferenceQuery()) {
        PreferenceQueryStats& stats = session.mutable_last_stats();
        stats.was_preference_query = true;
        PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*stmt.select));
        PSQL_ASSIGN_OR_RETURN(auto analyzed,
                              AnalyzePreferenceQuery(*expanded));
        PSQL_ASSIGN_OR_RETURN(
            PreferencePlan plan,
            PlanPreferenceLocked(session, {std::move(expanded), analyzed.pref},
                                 stats));
        Result<ResultTable> drained = DrainToTable(*plan.root);
        FlushStats(session, stats, plan, drained.ok() ? drained->num_rows() : 0,
                   qctx.get());
        PSQL_ASSIGN_OR_RETURN(rows, std::move(drained));
      }
      return rows.has_value() ? db_.executor().InsertTable(
                                    stmt.name, stmt.insert_columns, *rows)
                              : db_.ExecuteStatement(stmt);
    }();
    SnapshotCacheCounters(session);
    ddl.unlock();
    TryCollectGarbage(session);
    return result;
  }

  // Everything else passes through to the database system (§3.1: "without
  // causing any noticeable overhead") — DDL, so exclusively, then evicts
  // the preparations the catalog change made unreachable.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto result = db_.ExecuteStatement(stmt);
  plan_cache_.EvictOtherVersions(db_.catalog().version());
  SnapshotCacheCounters(session);
  return result;
}

// ===========================================================================
// Preparation
// ===========================================================================

Result<std::shared_ptr<const CachedPlan>> Engine::BuildPreparation(
    StatementKind kind, std::shared_ptr<const SelectStmt> select) {
  auto prepared = std::make_shared<CachedPlan>();
  prepared->kind = kind;
  prepared->select = select;
  if (select != nullptr) {
    prepared->params = CollectParameters(*select);
    if (select->IsPreferenceQuery()) {
      prepared->pref_has_params = PrefTermHasParameters(*select->preferring);
      // PDL expansion reads the catalog; everything else is pure.
      std::shared_lock<std::shared_mutex> lock(mutex_);
      PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*select));
      if (!prepared->pref_has_params) {
        PSQL_ASSIGN_OR_RETURN(auto analyzed,
                              AnalyzePreferenceQuery(*expanded));
        prepared->preference = analyzed.pref;
      }
      prepared->expanded = std::move(expanded);
      prepared->catalog_version = db_.catalog().version();
    }
  }
  return std::shared_ptr<const CachedPlan>(std::move(prepared));
}

Result<std::shared_ptr<const CachedPlan>> Engine::LookupOrPrepare(
    Session& session, const std::string& key_text,
    const std::function<Result<std::shared_ptr<const CachedPlan>>()>& build,
    bool* hit) {
  *hit = false;
  if (!session.options().plan_cache) return build();
  PlanCacheKey key{key_text, db_.catalog().version()};
  if (auto cached = plan_cache_.Lookup(key)) {
    *hit = true;
    return cached;
  }
  PSQL_ASSIGN_OR_RETURN(auto prepared, build());
  plan_cache_.Insert(key, prepared);
  return prepared;
}

Result<Engine::PreparedText> Engine::PrepareText(Session& session,
                                                 const std::string& sql,
                                                 bool collapse_in_lists) {
  PreparedText out;
  // Only SELECT/EXPLAIN are prepared through the cache (cheap prefix test
  // on the normalized text); every other statement is just parsed.
  std::string normalized = NormalizeSql(sql);
  if (!StartsWithKeyword(normalized, "select") &&
      !StartsWithKeyword(normalized, "explain")) {
    PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
    out.stmt = std::make_shared<const Statement>(std::move(stmt));
    return out;
  }
  // With auto-parameterization on, the key text is the canonical form with
  // literals lifted into `?` holes: repetitions differing only in literal
  // values share one entry, and the lifted values are bound per execution.
  out.key_text = std::move(normalized);
  if (session.options().auto_parameterize) {
    ParameterizedSql p = ParameterizeSql(sql, collapse_in_lists);
    if (p.parameterized) {
      out.key_text = std::move(p.text);
      out.values = std::move(p.values);
      out.widths = std::move(p.widths);
      out.auto_parameterized = true;
    }
  }
  bool parse_failed = false;
  auto plan = LookupOrPrepare(
      session, out.key_text,
      [&]() -> Result<std::shared_ptr<const CachedPlan>> {
        // Unlifted, parse the client's own text: its error offsets are the
        // ones the client can read.
        Result<Statement> stmt =
            ParseStatement(out.auto_parameterized ? out.key_text : sql);
        if (!stmt.ok()) {
          parse_failed = true;
          return stmt.status();
        }
        return BuildPreparation(stmt->kind, stmt->select);
      },
      &out.plan_cache_hit);
  if (!plan.ok() && parse_failed && out.auto_parameterized) {
    // The lifted text failed to parse: report the client text's error, at
    // offsets into what the client sent. (Should the client's text parse
    // after all, run it as written, unlifted and uncached.)
    PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
    PSQL_ASSIGN_OR_RETURN(out.plan, BuildPreparation(stmt.kind, stmt.select));
    out.key_text = NormalizeSql(sql);
    out.auto_parameterized = false;
    out.values.clear();
    out.widths.clear();
    return out;
  }
  PSQL_ASSIGN_OR_RETURN(out.plan, std::move(plan));
  return out;
}

Result<Engine::ExecutionView> Engine::BindForExecutionLocked(
    const CachedPlan& plan, const std::vector<Value>* params,
    const std::vector<uint32_t>* widths) {
  bool wide = false;
  if (widths != nullptr) {
    for (uint32_t w : *widths) wide = wide || w != 1;
  }
  const bool is_pref =
      plan.select != nullptr && plan.select->IsPreferenceQuery();
  std::shared_ptr<const SelectStmt> select = plan.select;
  std::shared_ptr<const CompiledPreference> pref;
  if (is_pref) {
    if (db_.catalog().version() == plan.catalog_version) {
      select = plan.expanded;
      pref = plan.preference;  // nullptr when PREFERRING has parameter holes
    } else {
      // DDL committed between preparation/lookup and this lock acquisition
      // — a stored PREFERENCE may mean something else now. Re-derive under
      // the held lock so the execution is consistent with the catalog it
      // reads (the transparent re-prepare).
      PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*plan.select));
      select = std::move(expanded);
      pref = nullptr;
    }
  }
  if (params != nullptr && !params->empty()) {
    auto bound = select->Clone();
    // Collapsed IN-list placeholders re-expand on the private clone first,
    // so binding below consumes the flat value vector 1:1 as always.
    if (wide) PSQL_RETURN_IF_ERROR(ExpandWideParameters(*bound, *widths));
    PSQL_RETURN_IF_ERROR(
        BindSelectParameters(*bound, *params, /*parse_errors=*/true));
    select = std::move(bound);
    if (plan.pref_has_params) pref = nullptr;
  }
  if (is_pref && pref == nullptr) {
    // A parameterized PREFERRING clause (or a re-expansion after DDL)
    // compiles per execution, against the bound values.
    PSQL_ASSIGN_OR_RETURN(auto analyzed, AnalyzePreferenceQuery(*select));
    pref = analyzed.pref;
  }
  return ExecutionView{std::move(select), std::move(pref)};
}

// ===========================================================================
// Prepared execution over cursors
// ===========================================================================

Cursor Engine::MaterializedCursor(ResultTable result, Session* session,
                                  std::shared_ptr<Engine> keepalive) {
  auto impl = std::make_unique<Cursor::Impl>();
  impl->schema = result.schema();
  impl->table = std::move(result);
  impl->session = session;
  impl->engine = this;
  impl->engine_keepalive = std::move(keepalive);
  return Cursor(std::move(impl));
}

Result<Cursor> Engine::OpenPreparedCursor(
    Session& session, std::shared_ptr<const CachedPlan> plan,
    bool plan_cache_hit, const std::vector<Value>* params,
    bool auto_parameterized, std::shared_ptr<Engine> keepalive,
    const std::vector<uint32_t>* widths) {
  const size_t provided = params != nullptr ? params->size() : 0;
  uint64_t expected = plan->params.count();
  if (widths != nullptr && !widths->empty()) {
    // Collapsed placeholders: the plan carries one slot per placeholder
    // and the flat values must cover every slot's width exactly.
    if (widths->size() != plan->params.count()) {
      return Status::BindError(
          "statement expects " + std::to_string(plan->params.count()) +
          " placeholder(s), got " + std::to_string(widths->size()));
    }
    expected = 0;
    for (uint32_t w : *widths) expected += w;
  }
  if (expected != provided) {
    if (provided == 0) return UnboundParametersError();
    return Status::BindError("statement expects " + std::to_string(expected) +
                             " parameter(s), got " + std::to_string(provided));
  }
  PreferenceQueryStats& stats = session.ResetStatsForNewStatement();
  stats.plan_cache_hit = plan_cache_hit;
  stats.auto_parameterized = auto_parameterized;
  stats.bound_parameters = provided;

  // Deadline/cancel/budget governance for this statement. Materialized
  // results and error exits retire the context through the guard; a
  // streaming cursor takes it over (guard released) and retires it on
  // Close, so CancelCurrent keeps reaching in-flight pulls.
  std::shared_ptr<QueryContext> qctx = ArmStatementContext(session);
  ScopedQueryContext qscope(qctx.get());
  SessionContextClearGuard clear_guard(&session, qctx);

  if (plan->kind == StatementKind::kExplain) {
    PSQL_ASSIGN_OR_RETURN(ResultTable result,
                          ExecuteExplain(session, *plan, params, widths));
    FlushBatchExecStats(qctx.get(), stats);
    SnapshotCacheCounters(session);
    return MaterializedCursor(std::move(result), &session,
                              std::move(keepalive));
  }

  // Every SELECT streams under the shared DDL lock at a snapshot pinned
  // under it (pins are only ever taken while it is held, which is what lets
  // the GC's exclusive acquisition conclude "no pins, no readers"). The
  // ambient scope makes binding, rewriting, planning, and Open all read at
  // the pinned epoch.
  const bool is_pref = plan->select->IsPreferenceQuery();
  stats.was_preference_query = is_pref;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  SnapshotPin pin(&db_.catalog().epochs());
  stats.pinned_epoch = pin.snapshot();
  ScopedSnapshot ambient(pin.snapshot());
  PSQL_ASSIGN_OR_RETURN(ExecutionView view,
                        BindForExecutionLocked(*plan, params, widths));
  auto impl = std::make_unique<Cursor::Impl>();
  if (is_pref) {
    PSQL_ASSIGN_OR_RETURN(
        impl->pref_plan,
        PlanPreferenceLocked(session, std::move(view), stats));
    impl->root = impl->pref_plan.root.get();
  } else {
    PSQL_ASSIGN_OR_RETURN(impl->plain_root,
                          db_.executor().PlanSelectOperator(*view.select));
    impl->root = impl->plain_root.get();
    impl->select_keepalive = std::move(view.select);
  }
  impl->lock = std::move(lock);
  impl->snapshot = pin.snapshot();
  impl->pin = std::move(pin);
  impl->ctx = qctx;
  impl->plan_keepalive = std::move(plan);
  impl->engine_keepalive = std::move(keepalive);
  impl->engine = this;
  impl->session = &session;
  impl->stats = stats;
  impl->stats_epoch = session.stats_epoch();
  impl->schema = impl->root->schema();
  // Open consumes the input of any pipeline breaker (a BMO block, a sort);
  // afterwards rows stream out on demand.
  Status open = impl->root->Open();
  Cursor cursor(std::move(impl));
  if (!open.ok()) {
    // Close flushes whatever the operators counted before the failure into
    // last_stats and releases the lock.
    cursor.Close();
    return open;
  }
  clear_guard.Release();
  return cursor;
}

// ===========================================================================
// Preference planning: rewrite or in-engine BMO
// ===========================================================================

Result<std::shared_ptr<SelectStmt>> Engine::ExpandSelect(
    const SelectStmt& select) {
  auto out = select.Clone();
  if (out->preferring != nullptr &&
      ContainsNamedPreference(*out->preferring)) {
    PSQL_ASSIGN_OR_RETURN(
        out->preferring,
        ExpandNamedPreferences(*out->preferring, db_.catalog()));
  }
  return out;
}

Result<std::vector<std::string>> Engine::ProbeBaseColumns(
    const SelectStmt& select) {
  // Schema probe: plan the candidate query with a FALSE predicate and read
  // the names off the planned schema; nothing is scanned. Planning still
  // materializes FROM subqueries and views, so their errors surface here.
  auto probe = std::make_shared<SelectStmt>();
  probe->items.push_back({Expr::MakeStar(), ""});
  for (const auto& tr : select.from) probe->from.push_back(tr->Clone());
  probe->where = Expr::MakeLiteral(Value::Bool(false));
  PSQL_ASSIGN_OR_RETURN(OperatorPtr plan,
                        db_.executor().PlanSelectOperator(*probe));
  return plan->schema().Names();
}

Result<RewriteOutput> Engine::RewriteLocked(
    const Session& session, const SelectStmt& select,
    const std::shared_ptr<const CompiledPreference>& pref,
    const std::string& aux_name) {
  AnalyzedPreferenceQuery analyzed(&select, pref);
  PSQL_ASSIGN_OR_RETURN(auto base_columns, ProbeBaseColumns(select));
  PSQL_RETURN_IF_ERROR(
      ValidatePreferenceColumns(analyzed.preference(), base_columns));
  return RewritePreferenceQuery(analyzed, base_columns,
                                session.options().but_only_mode, aux_name);
}

Result<PreferencePlan> Engine::PlanPreferenceLocked(
    Session& session, ExecutionView view, PreferenceQueryStats& stats) {
  const ConnectionOptions& options = session.options();
  if (options.mode == EvaluationMode::kRewrite) {
    Result<RewriteOutput> rewritten =
        RewriteLocked(session, *view.select, view.preference, kLocalAuxName);
    if (rewritten.ok()) {
      // The standard SQL pipeline over the rewritten query, with the Aux
      // views bound statement-local; the plan keeps the query alive.
      stats.used_rewrite = true;
      PreferencePlan plan;
      PSQL_ASSIGN_OR_RETURN(plan.root,
                            db_.executor().PlanSelectOperator(
                                *rewritten->query, LocalViewsOf(*rewritten)));
      plan.query = std::move(rewritten->query);
      return plan;
    }
    if (!rewritten.status().IsNotImplemented()) return rewritten.status();
    // Rewriter refused (e.g. non-weak-order EXPLICIT): evaluate in-engine.
    stats.rewrite_fallback = true;
  }
  // In-engine BMO over the streamed candidates.
  AnalyzedPreferenceQuery analyzed(view.select.get(), view.preference);
  PSQL_ASSIGN_OR_RETURN(PreferencePlan plan,
                        BuildPreferencePlan(db_, analyzed, options));
  stats.bmo_algorithm = BmoAlgorithmToString(options.bmo_algorithm);
  stats.bmo_kernel =
      DominanceKernelToString(analyzed.preference().program().kernel());
  stats.used_pushdown = plan.used_pushdown;
  stats.pushdown_detail = plan.pushdown_detail;
  plan.query = std::move(view.select);
  return plan;
}

void Engine::FlushStats(Session& session, PreferenceQueryStats stats,
                        const PreferencePlan& plan, size_t result_count,
                        const QueryContext* ctx) {
  if (plan.bmo_stats != nullptr) {
    const BmoRunStats& bmo = *plan.bmo_stats;
    const BmoRunStats& pre = *plan.prefilter_stats;
    stats.candidate_count = bmo.candidate_count;
    stats.bmo_comparisons = bmo.bmo.comparisons + pre.bmo.comparisons;
    stats.bmo_partitions = bmo.partitions;
    stats.bmo_threads_used = std::max(bmo.threads_used, pre.threads_used);
    stats.bmo_key_build_ns = bmo.bmo.key_build_ns;
    stats.bmo_kernel = DominanceKernelToString(bmo.bmo.kernel);
    stats.bmo_simd = SimdVariantToString(bmo.bmo.simd);
    stats.bmo_vector_leaves = bmo.vector_leaves;
    stats.prefilter_candidate_count = pre.candidate_count;
    stats.prefilter_result_count = pre.result_count;
  }
  stats.result_count = result_count;
  FlushBatchExecStats(ctx, stats);
  session.mutable_last_stats() = std::move(stats);
  SnapshotCacheCounters(session);
}

Result<ResultTable> Engine::ExecuteExplain(
    Session& session, const CachedPlan& plan,
    const std::vector<Value>* params, const std::vector<uint32_t>* widths) {
  Schema schema = Schema::FromNames({"plan"});
  std::vector<Row> lines;
  auto add = [&](const std::string& s) { lines.push_back({Value::Text(s)}); };
  std::shared_lock<std::shared_mutex> lock(mutex_);
  SnapshotPin pin(&db_.catalog().epochs());
  session.mutable_last_stats().pinned_epoch = pin.snapshot();
  ScopedSnapshot ambient(pin.snapshot());
  PSQL_ASSIGN_OR_RETURN(ExecutionView view,
                        BindForExecutionLocked(plan, params, widths));
  const SelectStmt& select = *view.select;
  if (!select.IsPreferenceQuery()) {
    add("-- standard SQL: passed through to the host database unchanged");
    add(SelectToSql(select));
    return ResultTable(std::move(schema), std::move(lines));
  }
  const char* plan_cache_state =
      !session.options().plan_cache          ? "off"
      : session.last_stats().plan_cache_hit ? "hit"
                                            : "miss";
  const std::string plan_cache_line =
      std::string("-- plan cache: ") + plan_cache_state +
      " (catalog version " + std::to_string(db_.catalog().version()) + ")";
  const ConnectionOptions& options = session.options();
  AnalyzedPreferenceQuery analyzed(&select, view.preference);
  if (options.mode != EvaluationMode::kRewrite) {
    // Direct path: describe the physical decisions (pushdown placement,
    // skyline algorithm, parallelism) by compiling the plan without
    // draining it.
    PSQL_ASSIGN_OR_RETURN(PreferencePlan pplan,
                          BuildPreferencePlan(db_, analyzed, options,
                                              /*count_stats=*/false));
    add("-- direct evaluation (mode=" +
        std::string(EvaluationModeToString(options.mode)) + ", algorithm=" +
        std::string(BmoAlgorithmToString(options.bmo_algorithm)) +
        ", kernel=" +
        std::string(DominanceKernelToString(
            analyzed.preference().program().kernel())) +
        ", bmo_threads=" + std::to_string(options.bmo_threads) + ", simd=" +
        std::string(SimdVariantToString(
            analyzed.preference().program().WindowVariant())) +
        ")");
    add("-- " + pplan.pushdown_detail);
    add("-- mvcc: snapshot epoch " + std::to_string(pin.snapshot()) +
        ", pinned readers " +
        std::to_string(db_.catalog().epochs().pinned_count()) +
        ", gc cleared " +
        std::to_string(db_.executor().stats().gc_cleared.load(
            std::memory_order_relaxed)));
    add(plan_cache_line);
    add(SelectToSql(select));
    return ResultTable(std::move(schema), std::move(lines));
  }
  auto rewritten =
      RewriteLocked(session, select, view.preference, kPrintedAuxName);
  if (!rewritten.ok()) {
    if (rewritten.status().IsNotImplemented()) {
      add("-- preference is not expressible as level columns; evaluated "
          "in-engine (BNL)");
      add(plan_cache_line);
      add(SelectToSql(select));
      return ResultTable(std::move(schema), std::move(lines));
    }
    return rewritten.status();
  }
  add("-- Preference SQL optimizer translation (paper 3.2)");
  add(plan_cache_line);
  for (const auto& st : rewritten->setup) add(StatementToSql(st) + ";");
  add(SelectToSql(*rewritten->query) + ";");
  for (const auto& st : rewritten->teardown) add(StatementToSql(st) + ";");
  return ResultTable(std::move(schema), std::move(lines));
}

Result<std::string> Engine::RewriteToSql(Session& session,
                                         const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect ||
      !stmt.select->IsPreferenceQuery()) {
    return Status::InvalidArgument(
        "RewriteToSql expects a query with a PREFERRING clause");
  }
  if (StatementHasParameters(stmt)) return UnboundParametersError();
  std::shared_lock<std::shared_mutex> lock(mutex_);
  PSQL_ASSIGN_OR_RETURN(auto expanded, ExpandSelect(*stmt.select));
  PSQL_ASSIGN_OR_RETURN(auto analyzed, AnalyzePreferenceQuery(*expanded));
  PSQL_ASSIGN_OR_RETURN(
      RewriteOutput rewritten,
      RewriteLocked(session, *expanded, analyzed.pref, kPrintedAuxName));
  return rewritten.ToScript();
}

void Engine::SnapshotCacheCounters(Session& session) {
  PreferenceQueryStats& stats = session.mutable_last_stats();
  stats.plan_cache_evictions = plan_cache_.counters().evictions;
  const Executor::Stats& xstats = db_.executor().stats();
  stats.mvcc_versions_scanned =
      xstats.mvcc.versions_scanned.load(std::memory_order_relaxed);
  stats.mvcc_versions_skipped =
      xstats.mvcc.versions_skipped.load(std::memory_order_relaxed);
  stats.mvcc_gc_cleared = xstats.gc_cleared.load(std::memory_order_relaxed);
}

void Engine::TryCollectGarbage(Session& session) {
  if (!session.options().mvcc_gc) return;
  // Exclusive DDL-lock acquisition proves no statement is in flight and no
  // snapshot is pinned (pins are only taken under the shared lock), so
  // last_dml is stable to read and every version dead at or before the
  // horizon is unreachable forever. Readers present? Skip — the next
  // write retries.
  std::unique_lock<std::shared_mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  const Executor::DmlEffect& dml = db_.executor().last_dml();
  if (dml.kind == Executor::DmlEffect::Kind::kNone) return;
  auto table = db_.catalog().GetTable(dml.table);
  if (!table.ok() || (*table)->id() != dml.table_id) return;
  CollectGarbageLocked(*table);
}

namespace {

// Interprets a SET value as a non-negative integer.
Result<size_t> SetValueAsSize(const Value& v, const std::string& knob) {
  if (v.type() == ValueType::kInt && v.AsInt() >= 0) {
    return static_cast<size_t>(v.AsInt());
  }
  return Status::InvalidArgument("SET " + knob +
                                 " expects a non-negative integer");
}

// Interprets a SET value as a boolean (on/off/true/false/1/0).
Result<bool> SetValueAsBool(const Value& v, const std::string& knob) {
  if (v.type() == ValueType::kBool) return v.AsBool();
  if (v.type() == ValueType::kInt) return v.AsInt() != 0;
  if (v.type() == ValueType::kText) {
    const std::string t = ToLower(v.AsText());
    if (t == "on" || t == "true" || t == "1") return true;
    if (t == "off" || t == "false" || t == "0") return false;
  }
  return Status::InvalidArgument("SET " + knob + " expects on or off");
}

Result<EvaluationMode> SetValueAsMode(const Value& v, const std::string&) {
  const std::string m = v.type() == ValueType::kText ? ToLower(v.AsText()) : "";
  if (m == "rewrite") return EvaluationMode::kRewrite;
  if (m == "bnl") return EvaluationMode::kBlockNestedLoop;
  return Status::InvalidArgument("SET evaluation_mode expects rewrite or bnl");
}

Result<BmoAlgorithm> SetValueAsAlgorithm(const Value& v, const std::string&) {
  if (v.type() == ValueType::kText) {
    return BmoAlgorithmFromString(ToLower(v.AsText()));
  }
  return Status::InvalidArgument(
      "SET bmo_algorithm expects naive, bnl, sfs, less or default");
}

Result<ButOnlyMode> SetValueAsButOnly(const Value& v, const std::string&) {
  const std::string m = v.type() == ValueType::kText ? ToLower(v.AsText()) : "";
  if (m == "prefilter") return ButOnlyMode::kPreFilter;
  if (m == "postfilter") return ButOnlyMode::kPostFilter;
  return Status::InvalidArgument(
      "SET but_only_mode expects prefilter or postfilter");
}

std::string EchoSize(uint64_t n) { return std::to_string(n); }
std::string EchoBool(bool b) { return b ? "on" : "off"; }
std::string EchoButOnly(ButOnlyMode m) {
  return m == ButOnlyMode::kPreFilter ? "prefilter" : "postfilter";
}

// One SET knob: the session option it names, how a value parses into it
// (`set`), how `SET <knob> = default` restores it (`reset`), and the
// effective value SET echoes back (`echo`).
struct Knob {
  const char* name;
  Status (*set)(ConnectionOptions& options, const Value& v,
                const std::string& knob);
  void (*reset)(ConnectionOptions& options);
  std::string (*echo)(const ConnectionOptions& options);
};

template <auto Field, auto Parse, auto Echo>
Knob MakeKnob(const char* name) {
  return Knob{
      name,
      [](ConnectionOptions& o, const Value& v, const std::string& knob) {
        auto parsed = Parse(v, knob);
        if (parsed.ok()) o.*Field = *parsed;
        return parsed.status();
      },
      [](ConnectionOptions& o) { o.*Field = ConnectionOptions{}.*Field; },
      [](const ConnectionOptions& o) { return std::string(Echo(o.*Field)); }};
}

using O = ConnectionOptions;

// Every knob, in the order the unknown-setting message lists them.
const Knob kKnobs[] = {
    MakeKnob<&O::mode, SetValueAsMode, EvaluationModeToString>(
        "evaluation_mode"),
    MakeKnob<&O::bmo_algorithm, SetValueAsAlgorithm, BmoAlgorithmToString>(
        "bmo_algorithm"),
    MakeKnob<&O::bmo_threads, SetValueAsSize, EchoSize>("bmo_threads"),
    MakeKnob<&O::parallel_min_rows, SetValueAsSize, EchoSize>(
        "parallel_min_rows"),
    MakeKnob<&O::preference_pushdown, SetValueAsBool, EchoBool>(
        "preference_pushdown"),
    MakeKnob<&O::bnl_window, SetValueAsSize, EchoSize>("bnl_window"),
    MakeKnob<&O::but_only_mode, SetValueAsButOnly, EchoButOnly>(
        "but_only_mode"),
    MakeKnob<&O::plan_cache, SetValueAsBool, EchoBool>("plan_cache"),
    MakeKnob<&O::auto_parameterize, SetValueAsBool, EchoBool>(
        "auto_parameterize"),
    MakeKnob<&O::mvcc_gc, SetValueAsBool, EchoBool>("mvcc_gc"),
    MakeKnob<&O::mvcc_gc_background, SetValueAsBool, EchoBool>(
        "mvcc_gc_background"),
    MakeKnob<&O::statement_timeout_ms, SetValueAsSize, EchoSize>(
        "statement_timeout_ms"),
    MakeKnob<&O::statement_memory_bytes, SetValueAsSize, EchoSize>(
        "statement_memory_bytes"),
    MakeKnob<&O::engine_memory_bytes, SetValueAsSize, EchoSize>(
        "engine_memory_bytes"),
};

}  // namespace

Result<ResultTable> Engine::ExecuteSet(Session& session,
                                       const Statement& stmt) {
  ConnectionOptions& options = session.options();
  const std::string name = ToLower(stmt.name);
  const Knob* knob = nullptr;
  std::string known;
  for (const Knob& k : kKnobs) {
    if (name == k.name) knob = &k;
    known += (known.empty() ? "" : ", ") + std::string(k.name);
  }
  if (knob == nullptr) {
    return Status::InvalidArgument("unknown setting '" + stmt.name +
                                   "' (known: " + known + ")");
  }
  const Value& v = stmt.set_value;
  if (v.type() == ValueType::kNull ||
      (v.type() == ValueType::kText && ToLower(v.AsText()) == "default")) {
    knob->reset(options);
  } else {
    PSQL_RETURN_IF_ERROR(knob->set(options, v, name));
  }
  if (name == "mvcc_gc_background") {
    // Engine-wide effect: pauses/resumes the background reclaimer thread
    // for every session sharing this engine.
    gc_background_enabled_.store(options.mvcc_gc_background,
                                 std::memory_order_relaxed);
    gc_cv_.notify_one();
  } else if (name == "engine_memory_bytes") {
    // Engine-wide effect: the budget is shared by all sessions' statements.
    engine_budget_.set_limit(options.engine_memory_bytes);
  }

  // Echo the effective value so scripts/shell users see what stuck.
  Schema schema = Schema::FromNames({"setting", "value"});
  std::vector<Row> rows;
  rows.push_back({Value::Text(name), Value::Text(knob->echo(options))});
  return ResultTable(std::move(schema), std::move(rows));
}

}  // namespace prefsql
