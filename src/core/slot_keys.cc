#include "core/slot_keys.h"

#include <algorithm>

#include "core/query_context.h"

namespace prefsql {

Result<SlotKeys> SlotKeys::Make(const CompiledPreference& pref,
                                const std::vector<BoundExpr>& leaves,
                                const Schema& schema, const Table& table,
                                size_t limit, SubqueryRunner* runner) {
  // Slots a vector extension covers between two interrupt checks.
  constexpr size_t kExtendStep = 16384;
  QueryContext* ctx = CurrentQueryContext();
  SlotKeys keys(pref, leaves, schema, table.heap(), runner);
  for (size_t l = 0; l < keys.plan_.size(); ++l) {
    const int64_t col = leaves[l].input_slot();
    const auto score = pref.leaf(l).pref->numeric_score();
    if (col < 0 || !score.has_value()) continue;
    const NumericColumn* numbers = nullptr;
    size_t covered = 0;
    do {
      if (ctx != nullptr) PSQL_RETURN_IF_ERROR(ctx->CheckInterrupt());
      numbers = &table.NumbersFor(static_cast<size_t>(col),
                                  std::min(limit, covered + kExtendStep));
      covered = numbers->covered();
    } while (covered < limit);
    keys.plan_[l] = Leaf{numbers, *score};
    ++keys.vector_leaves_;
  }
  return keys;
}

Status SlotKeys::Append(size_t slot, KeyStore* store) const {
  size_t bucket, off;
  RowHeap::Locate(slot, &bucket, &off);
  for (size_t l = 0; l < plan_.size(); ++l) {
    const Leaf& leaf = plan_[l];
    if (leaf.numbers != nullptr) {
      store->PushLeaf(leaf.score.Of(leaf.numbers->valid(bucket)[off] != 0,
                                    leaf.numbers->values(bucket)[off]),
                      -1);
      continue;
    }
    EvalContext ctx{&schema_, &heap_.row(slot), nullptr, runner_};
    auto v = Evaluate(leaves_[l], ctx);
    if (!v.ok()) {
      store->RollbackRow();
      return v.status();
    }
    const LeafKey k = pref_.leaf(l).pref->MakeKey(*v);
    store->PushLeaf(k.score, k.explicit_id);
  }
  store->CommitRow();
  return Status::OK();
}

}  // namespace prefsql
