#include "core/preference_query.h"

#include <memory>
#include <utility>
#include <vector>

#include "engine/planner.h"
#include "storage/epoch.h"
#include "sql/printer.h"
#include "util/string_util.h"

namespace prefsql {

Result<PreferencePlan> BuildPreferencePlan(
    Database& db, const AnalyzedPreferenceQuery& analyzed,
    const ConnectionOptions& options, bool count_stats) {
  const SelectStmt& q = *analyzed.query;
  const CompiledPreference& pref = analyzed.preference();
  BmoOptions bmo_options;
  bmo_options.algorithm = options.bmo_algorithm;
  bmo_options.bnl_window = options.bnl_window;
  PreferencePlan plan;
  plan.preference = analyzed.pref;
  plan.scope = std::make_unique<StatementScope>(&db.executor());
  Planner planner(plan.scope.get());
  plan.bmo_stats = std::make_unique<BmoRunStats>();
  plan.prefilter_stats = std::make_unique<BmoRunStats>();

  // Quality-function usage decides both the augmented output schema and the
  // pushdown eligibility: LEVEL/DISTANCE offsets are relative to the
  // *observed* per-partition minima, which a pre-filter below the join
  // would change.
  bool quality_projected = false;
  for (const auto& item : q.items) {
    quality_projected |= item.expr->kind != ExprKind::kStar &&
                         ContainsQualityCall(*item.expr);
  }
  for (const auto& oi : q.order_by) {
    quality_projected |= ContainsQualityCall(*oi.expr);
  }

  // 1. Candidate pipeline: FROM ... WHERE ... with qualifiers preserved,
  //    streamed (index scan when the WHERE has a usable access path). When
  //    sound, the algebraic pushdown places a semi-skyline pre-filter below
  //    the join (partitioned by join keys + pref-side GROUPING columns);
  //    the full BMO block on top keeps the semantics exact.
  PushdownReport report;
  report.detail = "no pushdown: not attempted";
  OperatorPtr candidates;
  std::optional<PreferencePushdown> pd;
  if (options.preference_pushdown && q.but_only == nullptr &&
      !quality_projected) {
    auto pref_columns = PreferenceColumnRefs(pref);
    if (pref_columns.has_value()) {
      pd.emplace();
      pd->pref_columns = std::move(*pref_columns);
      pd->grouping = q.grouping;
      pd->make_prefilter = [&](OperatorPtr input,
                               std::vector<size_t> partition_cols) {
        BmoOperatorConfig c;
        c.bmo = bmo_options;
        c.grouping_cols = std::move(partition_cols);
        c.threads = options.bmo_threads;
        c.parallel_min_rows = options.parallel_min_rows;
        c.stats_sink = plan.prefilter_stats.get();
        return OperatorPtr(std::make_unique<BmoOperator>(
            std::move(input), &pref, std::move(c), plan.scope.get()));
      };
    } else {
      report.detail = "no pushdown: preference attribute uses a subquery";
    }
  } else if (options.preference_pushdown) {
    report.detail =
        "no pushdown: BUT ONLY / quality functions depend on the full "
        "candidate set";
  } else {
    report.detail = "no pushdown: disabled";
  }
  PSQL_ASSIGN_OR_RETURN(
      candidates,
      planner.PlanCandidates(q, nullptr, count_stats,
                             pd ? &*pd : nullptr, &report));
  plan.used_pushdown = report.pushed;
  plan.pushdown_detail = std::move(report.detail);
  const Schema cand_schema = candidates->schema();
  PSQL_RETURN_IF_ERROR(
      ValidatePreferenceColumns(pref, cand_schema.Names()));

  // 2. GROUPING attributes (§2.2.5) resolve against the candidate schema.
  std::vector<size_t> grouping_cols;
  for (const auto& g : q.grouping) {
    PSQL_ASSIGN_OR_RETURN(size_t idx, cand_schema.Resolve("", g));
    grouping_cols.push_back(idx);
  }

  // 3. Quality calls (TOP/LEVEL/DISTANCE) rewrite to the BmoOperator's
  //    synthetic columns.
  auto quality_factory = [&](QualityFn fn,
                             const std::string& column) -> Result<ExprPtr> {
    PSQL_ASSIGN_OR_RETURN(size_t slot, pref.LeafForColumn(column));
    return Expr::MakeColumn("", BmoQualityColumnName(fn, slot));
  };

  if (q.but_only != nullptr) {
    PSQL_ASSIGN_OR_RETURN(
        plan.owned_but_only,
        RewriteQualityCalls(*q.but_only, quality_factory));
  }

  // 4. Final projection items with quality functions rewritten. '*' must
  //    expand to the *candidate* columns only (never the quality columns).
  std::vector<SelectItem> items;
  for (const auto& item : q.items) {
    if (item.expr->kind == ExprKind::kStar) {
      for (size_t c = 0; c < cand_schema.num_columns(); ++c) {
        const ColumnInfo& ci = cand_schema.column(c);
        if (!item.expr->qualifier.empty() &&
            !EqualsIgnoreCase(item.expr->qualifier, ci.qualifier)) {
          continue;
        }
        items.push_back({Expr::MakeColumn(ci.qualifier, ci.name), ci.name});
      }
      continue;
    }
    PSQL_ASSIGN_OR_RETURN(ExprPtr e,
                          RewriteQualityCalls(*item.expr, quality_factory));
    std::string alias = item.alias;
    if (alias.empty() && ContainsQualityCall(*item.expr)) {
      alias = ExprToSql(*item.expr);
    }
    items.push_back({std::move(e), std::move(alias)});
  }
  std::vector<OrderItem> order_by;
  for (const auto& oi : q.order_by) {
    PSQL_ASSIGN_OR_RETURN(ExprPtr e,
                          RewriteQualityCalls(*oi.expr, quality_factory));
    order_by.push_back({std::move(e), oi.ascending});
  }

  // 5. BMO operator. LIMIT pushdown: a bare LIMIT (no ORDER BY / BUT ONLY /
  //    GROUPING / DISTINCT) in sort-filter mode runs the progressive top-k
  //    variant and stops the filter pass at the k-th maximal tuple.
  BmoOperatorConfig config;
  config.bmo = bmo_options;
  config.grouping_cols = std::move(grouping_cols);
  config.but_only = plan.owned_but_only.get();
  config.but_only_mode = options.but_only_mode;
  config.emit_quality_columns = quality_projected;
  config.threads = options.bmo_threads;
  config.parallel_min_rows = options.parallel_min_rows;
  config.stats_sink = plan.bmo_stats.get();

  // A heap scan of one base table (with or without WHERE, full or index
  // path) hands the BMO each candidate's slot, and the key build reads the
  // table's column vectors over the slots the snapshot's version sealed.
  const uint64_t snap = AmbientSnapshotOr(db.catalog().epochs().current());
  if (!plan.used_pushdown && q.from.size() == 1) {
    if (const Table* table = planner.ScannedTable(*q.from[0])) {
      config.table = table;
      config.key_rows = table->HeapSizeAt(snap);
    }
  }

  bool progressive_topk =
      q.limit.has_value() && *q.limit >= 0 && !q.offset && q.order_by.empty() &&
      q.grouping.empty() && q.but_only == nullptr && !q.distinct &&
      bmo_options.algorithm == BmoAlgorithm::kSortFilterSkyline;
  if (progressive_topk) config.top_k = static_cast<size_t>(*q.limit);

  auto bmo = std::make_unique<BmoOperator>(std::move(candidates), &pref,
                                           std::move(config),
                                           plan.scope.get());

  // 6. Projection tail over the streamed maximal tuples.
  PSQL_ASSIGN_OR_RETURN(
      plan.root,
      planner.PlanTail(std::move(items), q.distinct, std::move(order_by),
                       q.limit, q.offset, std::move(bmo), nullptr));
  return plan;
}

}  // namespace prefsql
