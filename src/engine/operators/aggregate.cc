#include "engine/operators/aggregate.h"

namespace prefsql {

AggregateOperator::AggregateOperator(OperatorPtr child, Schema out_schema,
                                     std::vector<const Expr*> group_by,
                                     std::vector<const Expr*> aggs,
                                     std::vector<AggregateKind> kinds,
                                     const EvalContext* outer,
                                     SubqueryRunner* runner)
    : child_(std::move(child)),
      schema_(std::move(out_schema)),
      aggs_(std::move(aggs)),
      kinds_(std::move(kinds)),
      outer_(outer),
      runner_(runner) {
  for (const Expr* g : group_by) {
    group_by_.emplace_back(*g, child_->schema(), outer);
  }
  for (size_t j = 0; j < aggs_.size(); ++j) {
    agg_args_.push_back(kinds_[j] == AggregateKind::kCountStar
                            ? BoundExpr()
                            : BoundExpr(*aggs_[j]->args[0], child_->schema(),
                                        outer));
  }
}

Status AggregateOperator::Open() {
  PSQL_RETURN_IF_ERROR(child_->Open());
  group_rows_.clear();
  pos_ = 0;
  charge_.Reset();

  struct Group {
    Row key;
    std::vector<AggregateAccumulator> accs;
  };
  std::vector<Group> groups;
  std::unordered_map<size_t, std::vector<size_t>> group_index;

  auto new_group = [&](Row key) {
    Group g;
    g.key = std::move(key);
    for (size_t j = 0; j < aggs_.size(); ++j) {
      g.accs.emplace_back(kinds_[j], aggs_[j]->distinct_arg);
    }
    groups.push_back(std::move(g));
    return groups.size() - 1;
  };
  // Per group: its key and accumulators plus the index entry.
  const uint64_t group_bytes = sizeof(Group) + sizeof(size_t) +
                               group_by_.size() * sizeof(Value) +
                               aggs_.size() * sizeof(AggregateAccumulator);

  RowBatch batch;
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, PullBatch(*child_, &batch));
    if (!more) break;
    for (uint32_t idx : batch.sel) {
      EvalContext ctx{&child_->schema(), &batch.rows[idx].row(), outer_,
                      runner_};
      Row key;
      key.reserve(group_by_.size());
      for (const BoundExpr& g : group_by_) {
        PSQL_ASSIGN_OR_RETURN(Value v, Evaluate(g, ctx));
        key.push_back(std::move(v));
      }
      size_t h = HashRow(key);
      size_t gidx = SIZE_MAX;
      for (size_t cand : group_index[h]) {
        if (RowsIdentityEqual(groups[cand].key, key)) {
          gidx = cand;
          break;
        }
      }
      if (gidx == SIZE_MAX) {
        PSQL_RETURN_IF_ERROR(charge_.Add(group_bytes));
        gidx = new_group(std::move(key));
        group_index[h].push_back(gidx);
      }
      for (size_t j = 0; j < aggs_.size(); ++j) {
        Value arg;  // NULL placeholder for COUNT(*)
        if (kinds_[j] != AggregateKind::kCountStar) {
          PSQL_ASSIGN_OR_RETURN(arg, Evaluate(agg_args_[j], ctx));
        }
        PSQL_RETURN_IF_ERROR(groups[gidx].accs[j].Add(arg));
      }
    }
  }
  PSQL_RETURN_IF_ERROR(charge_.Flush());
  // Scalar aggregation over an empty input still yields one group.
  if (group_by_.empty() && groups.empty()) new_group(Row{});

  group_rows_.reserve(groups.size());
  for (auto& g : groups) {
    Row r = std::move(g.key);
    for (auto& acc : g.accs) r.push_back(acc.Finish());
    group_rows_.push_back(std::move(r));
  }
  return Status::OK();
}

Result<bool> AggregateOperator::NextBatch(RowBatch* out) {
  out->Clear();
  while (pos_ < group_rows_.size() && !out->full()) {
    out->PushRow(RowRef::Owned(std::move(group_rows_[pos_++])));
  }
  return !out->rows.empty();
}

void AggregateOperator::Close() {
  child_->Close();
  group_rows_.clear();
  charge_.Reset();
}

}  // namespace prefsql
