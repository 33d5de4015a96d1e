#include "core/engine.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
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
        CollectGarbageAllTablesLocked();
        background_gc_passes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    sleep_lock.lock();
  }
}

uint64_t Engine::CollectGarbageAllTablesLocked() {
#if defined(PREFSQL_FAILPOINTS_ENABLED)
  // Injected fault: the horizon computation "fails" — skip this sweep.
  if (!failpoint::Evaluate("gc_horizon").ok()) return 0;
#endif
  EpochManager& epochs = db_.catalog().epochs();
  const uint64_t horizon = epochs.MinPinnedOr(epochs.current());
  uint64_t freed = 0;
  for (const auto& name : db_.catalog().TableNames()) {
    auto table = db_.catalog().GetTable(name);
    if (table.ok()) freed += (*table)->CollectGarbage(horizon);
  }
  if (freed > 0) db_.executor().CountGarbageCollected(freed);
  return freed;
}

void Engine::RelieveMemoryPressure(uint64_t /*requested_bytes*/) {
  // Shed roughly a quarter of each cache's resident entries, cold end
  // first. This frees their heap memory immediately — though not
  // budget-charged bytes, which only return to the budget when their
  // statements finish — and the kicked reclaimer frees superseded version
  // payloads as soon as it wins the DDL lock. Only after both does a
  // retried charge fail the query with kResourceExhausted.
  auto quarter = [](size_t n) { return std::max<size_t>(4, n / 4); };
  plan_cache_.Shed(quarter(plan_cache_.size()));
  key_cache_.Shed(quarter(key_cache_.size()));
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

PlanCacheKey Engine::CacheKey(std::string text) {
  return PlanCacheKey{std::move(text), db_.catalog().version()};
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
  if (session.options().plan_cache) {
    // Probe the plan cache before paying for the parse; only SELECT/EXPLAIN
    // are cached (cheap prefix test). With auto-parameterization on, the
    // key text is the canonical form with literals lifted into `?` holes —
    // repetitions differing only in literal values hit the same entry, and
    // the lifted values are re-injected below.
    std::string text = NormalizeSql(sql);
    if (StartsWithKeyword(text, "select") ||
        StartsWithKeyword(text, "explain")) {
      std::string key_text = std::move(text);
      std::vector<Value> lifted;
      std::vector<uint32_t> lifted_widths;
      const std::vector<Value>* params = nullptr;
      const std::vector<uint32_t>* widths = nullptr;
      bool auto_par = false;
      const std::string* parse_text = &sql;
      if (session.options().auto_parameterize) {
        // IN lists collapse to one arity-normalized placeholder here (the
        // text path re-expands at bind time); PREPARE keeps placeholders
        // 1:1 with values, so only this path asks for collapsing.
        ParameterizedSql p = ParameterizeSql(sql, /*collapse_in_lists=*/true);
        if (p.parameterized) {
          key_text = std::move(p.text);
          lifted = std::move(p.values);
          lifted_widths = std::move(p.widths);
          params = &lifted;
          widths = &lifted_widths;
          auto_par = true;
          parse_text = &key_text;
        }
      }
      PlanCacheKey key = CacheKey(key_text);
      if (auto cached = plan_cache_.Lookup(key)) {
        return OpenPreparedCursor(session, std::move(cached),
                                  /*plan_cache_hit=*/true, params, auto_par,
                                  std::move(keepalive), widths);
      }
      auto parsed = ParseStatement(*parse_text);
      if (!parsed.ok() && auto_par) {
        // Safety hatch: the canonical parameterized text should re-parse by
        // construction; if it does not, run the original text uncached.
        PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
        PSQL_ASSIGN_OR_RETURN(ResultTable result,
                              ExecuteStatement(session, stmt));
        return MaterializedCursor(std::move(result), &session,
                                  std::move(keepalive));
      }
      PSQL_RETURN_IF_ERROR(parsed.status());
      Statement stmt = std::move(*parsed);
      if (IsCacheableKind(stmt.kind) && stmt.select != nullptr) {
        PSQL_ASSIGN_OR_RETURN(auto prepared,
                              BuildPreparation(stmt.kind, stmt.select));
        if (!auto_par && prepared->params.count() > 0) {
          return UnboundParametersError();
        }
        plan_cache_.Insert(key, prepared);
        return OpenPreparedCursor(session, std::move(prepared),
                                  /*plan_cache_hit=*/false, params, auto_par,
                                  std::move(keepalive), widths);
      }
      PSQL_ASSIGN_OR_RETURN(ResultTable result,
                            ExecuteStatement(session, stmt));
      return MaterializedCursor(std::move(result), &session,
                                std::move(keepalive));
    }
  }
  PSQL_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  PSQL_ASSIGN_OR_RETURN(ResultTable result, ExecuteStatement(session, stmt));
  return MaterializedCursor(std::move(result), &session, std::move(keepalive));
}

Result<PreparedStatement> Engine::Prepare(Session& session,
                                          const std::string& sql,
                                          std::shared_ptr<Engine> keepalive) {
  std::string normalized = NormalizeSql(sql);
  std::shared_ptr<const Statement> stmt;
  std::string key_text;
  std::vector<Value> lifted;
  bool auto_par = false;
  if (StartsWithKeyword(normalized, "select") ||
      StartsWithKeyword(normalized, "explain")) {
    if (session.options().auto_parameterize) {
      ParameterizedSql p = ParameterizeSql(sql);
      if (p.parameterized) {
        PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(p.text));
        stmt = std::make_shared<const Statement>(std::move(parsed));
        key_text = std::move(p.text);
        lifted = std::move(p.values);
        auto_par = true;
      }
    }
    if (stmt == nullptr) {
      PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
      stmt = std::make_shared<const Statement>(std::move(parsed));
      key_text = std::move(normalized);
    }
    if (IsCacheableKind(stmt->kind) && stmt->select != nullptr) {
      // Publish the preparation now: the very first Execute is warm, and
      // parse/analyze errors surface at Prepare time, as a driver expects.
      bool hit = false;
      auto prepared = LookupOrPrepare(session, key_text, stmt->kind,
                                      stmt->select, &hit);
      PSQL_RETURN_IF_ERROR(prepared.status());
    } else {
      key_text.clear();
    }
  } else {
    PSQL_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
    stmt = std::make_shared<const Statement>(std::move(parsed));
  }
  ParameterSignature signature = CollectParameters(*stmt);
  PreparedStatement prepared(this, std::move(keepalive), &session,
                             std::move(stmt), std::move(key_text),
                             std::move(signature));
  if (auto_par) {
    if (lifted.size() != prepared.signature_.count()) {
      return Status::Internal("auto-parameterization arity mismatch");
    }
    // Pre-bind the lifted literals: executing without further Bind calls
    // runs the statement exactly as written. Constraint violations report
    // as parse errors — the value came from the statement text itself.
    for (size_t i = 0; i < lifted.size(); ++i) {
      PSQL_RETURN_IF_ERROR(CheckParamConstraint(
          lifted[i], prepared.signature_.constraints[i], i,
          /*parse_errors=*/true));
      prepared.values_[i] = std::move(lifted[i]);
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
    // OpenPreparedCursor resets the stats and arms the statement's context.
    // Pre-parsed statements skip the parse already, so the cache only pays
    // off where preparation still does real work: PDL expansion and
    // preference compilation. Plain SELECT/EXPLAIN skip the print+lookup.
    if (session.options().plan_cache && stmt.select->IsPreferenceQuery()) {
      // The printed text keys identically across repetitions of this AST.
      bool hit = false;
      PSQL_ASSIGN_OR_RETURN(
          auto prepared,
          LookupOrPrepare(session, NormalizeSql(StatementToSql(stmt)),
                          stmt.kind, stmt.select, &hit));
      return ExecutePrepared(session, std::move(prepared), hit,
                             /*params=*/nullptr,
                             /*auto_parameterized=*/false);
    }
    PSQL_ASSIGN_OR_RETURN(auto prepared,
                          BuildPreparation(stmt.kind, stmt.select));
    return ExecutePrepared(session, std::move(prepared),
                           /*plan_cache_hit=*/false, /*params=*/nullptr,
                           /*auto_parameterized=*/false);
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
  // serialized against each other — and with the cache maintenance/sweep
  // they trigger — by the writer mutex.
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
      // written nothing, so there is nothing to maintain.
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
      auto r = rows.has_value() ? db_.executor().InsertTable(
                                      stmt.name, stmt.insert_columns, *rows)
                                : db_.ExecuteStatement(stmt);
      MaintainSkylineCaches();
      SweepCaches();
      return r;
    }();
    SnapshotCacheCounters(session);
    ddl.unlock();
    TryCollectGarbage(session);
    return result;
  }

  // Everything else passes through to the database system (§3.1: "without
  // causing any noticeable overhead") — DDL, so exclusively, with a cache
  // sweep afterwards to reclaim entries the write made unreachable.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto result = db_.ExecuteStatement(stmt);
  MaintainSkylineCaches();
  SweepCaches();
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
    Session& session, const std::string& key_text, StatementKind kind,
    std::shared_ptr<const SelectStmt> select, bool* hit) {
  *hit = false;
  if (!session.options().plan_cache || !IsCacheableKind(kind) ||
      select == nullptr) {
    return BuildPreparation(kind, std::move(select));
  }
  PlanCacheKey key = CacheKey(key_text);
  if (auto cached = plan_cache_.Lookup(key)) {
    *hit = true;
    return cached;
  }
  PSQL_ASSIGN_OR_RETURN(auto prepared, BuildPreparation(kind, select));
  plan_cache_.Insert(std::move(key), prepared);
  return prepared;
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

Result<ResultTable> Engine::ExecutePrepared(
    Session& session, std::shared_ptr<const CachedPlan> plan,
    bool plan_cache_hit, const std::vector<Value>* params,
    bool auto_parameterized, const std::vector<uint32_t>* widths) {
  PSQL_ASSIGN_OR_RETURN(
      Cursor cursor,
      OpenPreparedCursor(session, std::move(plan), plan_cache_hit, params,
                         auto_parameterized, nullptr, widths));
  return DrainCursor(cursor);
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
                        BuildPreferencePlan(db_, analyzed, options,
                                            &key_cache_));
  stats.bmo_algorithm = BmoAlgorithmToString(options.bmo_algorithm);
  stats.bmo_kernel =
      DominanceKernelToString(analyzed.preference().program().kernel());
  stats.used_pushdown = plan.used_pushdown;
  stats.pushdown_detail = plan.pushdown_detail;
  stats.key_cache_eligible = plan.key_cache_eligible;
  stats.key_cache_detail = plan.key_cache_detail;
  stats.skyline_cache_hit = plan.skyline_cache_hit;
  stats.skyline_cache_detail = plan.skyline_cache_detail;
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
    stats.key_cache_hit = bmo.key_cache_hit;
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
  const std::string plan_cache_line =
      std::string("-- plan cache: ") +
      (session.last_stats().plan_cache_hit ? "hit" : "miss") +
      " (catalog version " + std::to_string(db_.catalog().version()) + ")";
  const ConnectionOptions& options = session.options();
  AnalyzedPreferenceQuery analyzed(&select, view.preference);
  if (options.mode != EvaluationMode::kRewrite) {
    // Direct path: describe the physical decisions (pushdown placement,
    // skyline algorithm, parallelism, cache keying) by compiling the plan
    // without draining it.
    PSQL_ASSIGN_OR_RETURN(PreferencePlan pplan,
                          BuildPreferencePlan(db_, analyzed, options,
                                              &key_cache_,
                                              /*count_stats=*/false));
    add("-- direct evaluation (mode=" +
        std::string(EvaluationModeToString(options.mode)) + ", algorithm=" +
        std::string(BmoAlgorithmToString(options.bmo_algorithm)) +
        ", kernel=" +
        std::string(DominanceKernelToString(
            analyzed.preference().program().kernel())) +
        ", bmo_threads=" + std::to_string(options.bmo_threads) + ", simd=" +
        std::string(SimdVariantToString(
            options.simd &&
                    analyzed.preference().program().kernel() !=
                        DominanceKernel::kGeneric
                ? DispatchedSimdVariant()
                : SimdVariant::kScalar)) +
        ")");
    add("-- " + pplan.pushdown_detail);
    add("-- " + pplan.key_cache_detail);
    add("-- " + pplan.skyline_cache_detail);
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
  stats.key_cache_evictions = key_cache_.counters().evictions;
  stats.skyline_maintenance_events = key_cache_.maintenance_events();
  stats.skyline_invalidations = key_cache_.invalidations();
  const Executor::Stats& xstats = db_.executor().stats();
  stats.mvcc_versions_scanned =
      xstats.mvcc.versions_scanned.load(std::memory_order_relaxed);
  stats.mvcc_versions_skipped =
      xstats.mvcc.versions_skipped.load(std::memory_order_relaxed);
  stats.mvcc_gc_cleared = xstats.gc_cleared.load(std::memory_order_relaxed);
}

// ===========================================================================
// Incremental skyline-cache maintenance
// ===========================================================================

namespace {

// Maintenance reuses the block dominance kernels at full dispatch width
// (it serves every session's cached entries, so there is no per-session
// simd knob to honor).
SimdVariant MaintenanceSimd(const DominanceProgram& prog) {
  return prog.kernel() == DominanceKernel::kGeneric ? SimdVariant::kScalar
                                                    : DispatchedSimdVariant();
}

// True iff the ascending position lists `touched` and `skyline` intersect.
bool TouchesSkyline(const std::vector<uint32_t>& touched,
                    const std::vector<size_t>& skyline) {
  size_t i = 0;
  size_t j = 0;
  while (i < touched.size() && j < skyline.size()) {
    if (touched[i] < skyline[j]) {
      ++i;
    } else if (touched[i] > skyline[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

// Dominance-tests row `pos` (already keyed in `keys`) against the evolving
// skyline: a dominated tuple is discarded, a surviving one evicts the
// members it dominates and joins. Exact because a non-maximal tuple is
// always dominated by some *maximal* tuple (follow its dominator chain —
// finite and acyclic by transitivity/irreflexivity), so testing against the
// skyline alone decides maximality.
void AdmitIntoSkyline(const DominanceProgram& prog, const KeyStore& keys,
                      SimdVariant simd, size_t pos,
                      std::vector<size_t>* sky) {
  if (prog.AnyDominates(keys, sky->data(), sky->size(), pos, simd,
                        nullptr)) {
    return;
  }
  std::vector<uint8_t> evict(sky->size());
  prog.DominatesBlock(keys, pos, sky->data(), sky->size(), evict.data(),
                      simd, nullptr);
  size_t kept = 0;
  for (size_t w = 0; w < sky->size(); ++w) {
    if (!evict[w]) (*sky)[kept++] = (*sky)[w];
  }
  sky->resize(kept);
  sky->push_back(pos);
}

// Re-derives one cache entry under the post-DML state of `table`; nullptr
// means the entry cannot be carried over (skyline member end-stamped,
// re-key failure, or recorded effect inconsistent with the observed table)
// and must be invalidated. Under MVCC every DML is appends + end-stamps in
// a position-stable heap, so all three statement kinds share one shape:
// the entry's keys for the surviving slots are still correct verbatim, the
// appended slots [heap_before, heap_size) get fresh keys, and each
// appended tuple is dominance-tested against the cached skyline. Returns
// `entry` itself (no copy) when nothing was appended — a pure DELETE of
// non-members keeps both keys and skyline bit-identical; only the version
// key moves.
std::shared_ptr<const SkylineEntry> MaintainEntry(
    const std::shared_ptr<const SkylineEntry>& entry,
    const Executor::DmlEffect& dml, const Table& table) {
  if (entry->pref == nullptr || entry->keys == nullptr) return nullptr;
  // The entry's keys cover exactly the slot space sealed by the
  // pre-statement version.
  if (entry->keys->size() != dml.heap_before) return nullptr;
  const size_t heap_now = table.heap_size();
  if (heap_now < dml.heap_before) return nullptr;
  // End-stamping a skyline member masks an unknown dominated set — the
  // carried skyline would be missing resurfacing tuples. Invalidate.
  // (End-stamping non-members is free: removing dominated tuples never
  // changes the skyline, and dead slots are never candidates, so their
  // stale keys are never consulted.)
  if (entry->skyline.has_value() &&
      TouchesSkyline(dml.dead, *entry->skyline)) {
    return nullptr;
  }
  if (heap_now == dml.heap_before) return entry;

  const CompiledPreference& pref = *entry->pref;
  const DominanceProgram& prog = pref.program();
  const SimdVariant simd = MaintenanceSimd(prog);
  auto keys = std::make_shared<KeyStore>(*entry->keys);
  keys->Reserve(heap_now);
  const std::vector<BoundExpr> leaves = pref.BindLeaves(table.schema());
  for (size_t slot = dml.heap_before; slot < heap_now; ++slot) {
    if (!pref.AppendKey(leaves, table.schema(), table.heap().row(slot),
                        keys.get(), nullptr)
             .ok()) {
      return nullptr;
    }
  }
  if (keys->size() != heap_now) return nullptr;
  auto out = std::make_shared<SkylineEntry>();
  out->pref = entry->pref;
  if (entry->skyline.has_value()) {
    // The surviving members still dominate every surviving old non-member,
    // so admitting the appended tuples one by one against the evolving
    // skyline is exact (an appended tuple that evicts a member dominates
    // that member's subjects transitively).
    std::vector<size_t> sky = *entry->skyline;
    for (size_t slot = dml.heap_before; slot < heap_now; ++slot) {
      AdmitIntoSkyline(prog, *keys, simd, slot, &sky);
    }
    std::sort(sky.begin(), sky.end());
    out->skyline = std::move(sky);
  }
  out->keys = std::move(keys);
  return out;
}

}  // namespace

void Engine::MaintainSkylineCaches() {
  // Injected fault: maintenance "fails" — skip the carry entirely. Sound by
  // construction: the un-carried entries stay keyed at the superseded table
  // version, unreachable to any new reader, and the pin-aware sweep
  // reclaims them; repeated queries just rebuild from scratch.
  PSQL_FAILPOINT_VOID("skyline_maintenance");
  using Kind = Executor::DmlEffect::Kind;
  const Executor::DmlEffect& dml = db_.executor().last_dml();
  if (dml.kind == Kind::kNone) return;
  auto table_r = db_.catalog().GetTable(dml.table);
  if (!table_r.ok()) return;
  const Table& table = **table_r;
  if (table.id() != dml.table_id) return;
  // A DML statement that touched no rows seals no version and leaves every
  // entry reachable.
  if (table.version() == dml.version_before) return;
  EpochManager& epochs = db_.catalog().epochs();
  // A reader pinned at a pre-statement snapshot can still serve the
  // superseded entry — keep it resident next to the carried one. With no
  // such pin the carry is an atomic Rekey, so maintenance never doubles
  // the entry's residency (peak footprint stays flat across DML).
  const bool old_version_pinned =
      table.VersionAt(epochs.MinPinnedOr(epochs.current())) <=
      dml.version_before;
  for (auto& [key, entry] : key_cache_.SnapshotForTable(dml.table_id)) {
    if (key.table_version != dml.version_before || entry == nullptr) {
      continue;  // older version; kept or swept by the pin-aware sweep
    }
    auto maintained = MaintainEntry(entry, dml, table);
    if (maintained != nullptr) {
      KeyCacheKey new_key = key;
      new_key.table_version = table.version();
      if (old_version_pinned) {
        key_cache_.Insert(new_key, std::move(maintained));
      } else {
        key_cache_.Rekey(key, new_key, std::move(maintained));
      }
      key_cache_.CountMaintenance();
    } else {
      key_cache_.CountInvalidation();
    }
  }
}

void Engine::SweepCaches() {
  plan_cache_.EvictOtherVersions(db_.catalog().version());
  EpochManager& epochs = db_.catalog().epochs();
  // Liveness is a version *range* per table incarnation: a reader pinned at
  // the oldest snapshot may still serve entries keyed at the version its
  // snapshot sees, so everything from that version up to the current one
  // stays resident; with no pins the range collapses to the current
  // version.
  const uint64_t min_snapshot = epochs.MinPinnedOr(epochs.current());
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> live;
  for (const auto& name : db_.catalog().TableNames()) {
    auto table = db_.catalog().GetTable(name);
    if (table.ok()) {
      live[(*table)->id()] = {(*table)->VersionAt(min_snapshot),
                              (*table)->version()};
    }
  }
  auto is_live = [&](uint64_t table_id, uint64_t version) {
    auto it = live.find(table_id);
    return it != live.end() && version >= it->second.first &&
           version <= it->second.second;
  };
  key_cache_.EvictStale(is_live);
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
  // Injected fault: the horizon computation "fails" — skip this sweep (the
  // background reclaimer or a later write retries).
  PSQL_FAILPOINT_VOID("gc_horizon");
  const Executor::DmlEffect& dml = db_.executor().last_dml();
  if (dml.kind == Executor::DmlEffect::Kind::kNone) return;
  auto table = db_.catalog().GetTable(dml.table);
  if (!table.ok() || (*table)->id() != dml.table_id) return;
  EpochManager& epochs = db_.catalog().epochs();
  const uint64_t horizon = epochs.MinPinnedOr(epochs.current());
  const size_t freed = (*table)->CollectGarbage(horizon);
  if (freed > 0) {
    db_.executor().CountGarbageCollected(freed);
  }
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

}  // namespace

Result<ResultTable> Engine::ExecuteSet(Session& session,
                                       const Statement& stmt) {
  ConnectionOptions& options = session.options();
  const std::string knob = ToLower(stmt.name);
  const Value& v = stmt.set_value;
  const ConnectionOptions defaults;
  const bool reset = v.type() == ValueType::kNull ||
                     (v.type() == ValueType::kText &&
                      ToLower(v.AsText()) == "default");
  if (knob == "bmo_threads") {
    if (reset) {
      options.bmo_threads = defaults.bmo_threads;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.bmo_threads, SetValueAsSize(v, knob));
    }
  } else if (knob == "parallel_min_rows") {
    if (reset) {
      options.parallel_min_rows = defaults.parallel_min_rows;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.parallel_min_rows,
                            SetValueAsSize(v, knob));
    }
  } else if (knob == "bnl_window") {
    if (reset) {
      options.bnl_window = defaults.bnl_window;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.bnl_window, SetValueAsSize(v, knob));
    }
  } else if (knob == "preference_pushdown") {
    if (reset) {
      options.preference_pushdown = defaults.preference_pushdown;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.preference_pushdown,
                            SetValueAsBool(v, knob));
    }
  } else if (knob == "plan_cache") {
    if (reset) {
      options.plan_cache = defaults.plan_cache;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.plan_cache, SetValueAsBool(v, knob));
    }
  } else if (knob == "auto_parameterize") {
    if (reset) {
      options.auto_parameterize = defaults.auto_parameterize;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.auto_parameterize,
                            SetValueAsBool(v, knob));
    }
  } else if (knob == "key_cache") {
    if (reset) {
      options.key_cache = defaults.key_cache;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.key_cache, SetValueAsBool(v, knob));
    }
  } else if (knob == "skyline_cache") {
    if (reset) {
      options.skyline_cache = defaults.skyline_cache;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.skyline_cache, SetValueAsBool(v, knob));
    }
  } else if (knob == "simd") {
    if (reset) {
      options.simd = defaults.simd;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.simd, SetValueAsBool(v, knob));
    }
  } else if (knob == "mvcc_gc") {
    if (reset) {
      options.mvcc_gc = defaults.mvcc_gc;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.mvcc_gc, SetValueAsBool(v, knob));
    }
  } else if (knob == "mvcc_gc_background") {
    if (reset) {
      options.mvcc_gc_background = defaults.mvcc_gc_background;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.mvcc_gc_background,
                            SetValueAsBool(v, knob));
    }
    // Engine-wide effect: pauses/resumes the background reclaimer thread
    // for every session sharing this engine.
    gc_background_enabled_.store(options.mvcc_gc_background,
                                 std::memory_order_relaxed);
    gc_cv_.notify_one();
  } else if (knob == "statement_timeout_ms") {
    if (reset) {
      options.statement_timeout_ms = defaults.statement_timeout_ms;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.statement_timeout_ms,
                            SetValueAsSize(v, knob));
    }
  } else if (knob == "statement_memory_bytes") {
    if (reset) {
      options.statement_memory_bytes = defaults.statement_memory_bytes;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.statement_memory_bytes,
                            SetValueAsSize(v, knob));
    }
  } else if (knob == "engine_memory_bytes") {
    if (reset) {
      options.engine_memory_bytes = defaults.engine_memory_bytes;
    } else {
      PSQL_ASSIGN_OR_RETURN(options.engine_memory_bytes,
                            SetValueAsSize(v, knob));
    }
    // Engine-wide effect: the budget is shared by all sessions' statements.
    engine_budget_.set_limit(options.engine_memory_bytes);
  } else if (knob == "evaluation_mode") {
    if (reset) {
      options.mode = defaults.mode;
    } else if (v.type() == ValueType::kText) {
      const std::string m = ToLower(v.AsText());
      if (m == "rewrite") {
        options.mode = EvaluationMode::kRewrite;
      } else if (m == "bnl") {
        options.mode = EvaluationMode::kBlockNestedLoop;
      } else {
        return Status::InvalidArgument(
            "SET evaluation_mode expects rewrite or bnl");
      }
    } else {
      return Status::InvalidArgument(
          "SET evaluation_mode expects rewrite or bnl");
    }
  } else if (knob == "bmo_algorithm") {
    if (reset) {
      options.bmo_algorithm = defaults.bmo_algorithm;
    } else if (v.type() == ValueType::kText) {
      PSQL_ASSIGN_OR_RETURN(options.bmo_algorithm,
                            BmoAlgorithmFromString(ToLower(v.AsText())));
    } else {
      return Status::InvalidArgument(
          "SET bmo_algorithm expects naive, bnl, sfs, less or default");
    }
  } else if (knob == "but_only_mode") {
    const std::string m =
        v.type() == ValueType::kText ? ToLower(v.AsText()) : "";
    if (reset) {
      options.but_only_mode = defaults.but_only_mode;
    } else if (m == "prefilter") {
      options.but_only_mode = ButOnlyMode::kPreFilter;
    } else if (m == "postfilter") {
      options.but_only_mode = ButOnlyMode::kPostFilter;
    } else {
      return Status::InvalidArgument(
          "SET but_only_mode expects prefilter or postfilter");
    }
  } else {
    return Status::InvalidArgument(
        "unknown setting '" + stmt.name +
        "' (known: evaluation_mode, bmo_algorithm, bmo_threads, "
        "parallel_min_rows, preference_pushdown, bnl_window, but_only_mode, "
        "plan_cache, auto_parameterize, key_cache, skyline_cache, simd, "
        "mvcc_gc, mvcc_gc_background, statement_timeout_ms, "
        "statement_memory_bytes, engine_memory_bytes)");
  }

  // Echo the effective value so scripts/shell users see what stuck.
  std::string effective;
  if (knob == "bmo_threads") {
    effective = std::to_string(options.bmo_threads);
  } else if (knob == "parallel_min_rows") {
    effective = std::to_string(options.parallel_min_rows);
  } else if (knob == "bnl_window") {
    effective = std::to_string(options.bnl_window);
  } else if (knob == "preference_pushdown") {
    effective = options.preference_pushdown ? "on" : "off";
  } else if (knob == "plan_cache") {
    effective = options.plan_cache ? "on" : "off";
  } else if (knob == "auto_parameterize") {
    effective = options.auto_parameterize ? "on" : "off";
  } else if (knob == "key_cache") {
    effective = options.key_cache ? "on" : "off";
  } else if (knob == "skyline_cache") {
    effective = options.skyline_cache ? "on" : "off";
  } else if (knob == "simd") {
    effective = options.simd ? "on" : "off";
  } else if (knob == "mvcc_gc") {
    effective = options.mvcc_gc ? "on" : "off";
  } else if (knob == "mvcc_gc_background") {
    effective = options.mvcc_gc_background ? "on" : "off";
  } else if (knob == "statement_timeout_ms") {
    effective = std::to_string(options.statement_timeout_ms);
  } else if (knob == "statement_memory_bytes") {
    effective = std::to_string(options.statement_memory_bytes);
  } else if (knob == "engine_memory_bytes") {
    effective = std::to_string(options.engine_memory_bytes);
  } else if (knob == "evaluation_mode") {
    effective = EvaluationModeToString(options.mode);
  } else if (knob == "bmo_algorithm") {
    effective = BmoAlgorithmToString(options.bmo_algorithm);
  } else if (knob == "but_only_mode") {
    effective = options.but_only_mode == ButOnlyMode::kPreFilter
                    ? "prefilter"
                    : "postfilter";
  }
  Schema schema = Schema::FromNames({"setting", "value"});
  std::vector<Row> rows;
  rows.push_back({Value::Text(knob), Value::Text(effective)});
  return ResultTable(std::move(schema), std::move(rows));
}

}  // namespace prefsql
