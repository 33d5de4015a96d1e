// BmoOperator: the paper's plug-in preference selection operator (§3.2) as
// a physical pipeline operator. It pulls the candidate stream (scan/filter
// tree planned by engine/planner.h), builds the packed preference keys of
// exactly those candidates, partitions by the GROUPING attributes
// (§2.2.5), runs one of the BMO algorithms (core/bmo.h) per partition, and
// streams the maximal tuples to the projection tail.
//
// LIMIT pushdown: with `top_k` set (bare LIMIT, sort-filter mode) the
// operator runs the progressive ComputeBmoTopK and stops the filter pass at
// the k-th confirmed maximal tuple — measurably fewer dominance comparisons
// than the full BMO (see stats()).
//
// BUT ONLY (§2.2.4) evaluates against an augmented row (candidate columns +
// quality columns); the augmented schema is only emitted downstream when
// the query projects quality functions.

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/bmo.h"
#include "core/quality.h"
#include "util/memory_budget.h"
#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "preference/composite.h"
#include "preference/key_store.h"
#include "storage/table.h"

namespace prefsql {

/// Name of the synthetic quality column for `leaf` ("$top_0", "$level_2",
/// ...); TOP/LEVEL/DISTANCE calls are rewritten to reference these.
std::string BmoQualityColumnName(QualityFn fn, size_t leaf);

/// Observability of one BmoOperator run, flushed into the configured sink on
/// Close() (and from the destructor) so the numbers are correct even when a
/// consumer stops pulling early or the drain aborts with an error.
struct BmoRunStats {
  BmoStats bmo;                ///< dominance-test counters
  size_t candidate_count = 0;  ///< rows consumed from the child
  size_t result_count = 0;     ///< maximal tuples after BUT ONLY
  size_t partitions = 0;       ///< GROUPING partitions evaluated
  size_t threads_used = 1;     ///< parallel pool width (1 = serial)
  /// Preference leaves the key build read from column vectors by slot
  /// (core/slot_keys.h); 0 when it evaluated rows only.
  size_t vector_leaves = 0;
};

/// Configuration of one BmoOperator instance.
struct BmoOperatorConfig {
  BmoOptions bmo;
  /// Progressive top-k pushdown (bare LIMIT in sort-filter mode).
  std::optional<size_t> top_k;
  /// GROUPING partition columns (positions in the candidate schema).
  std::vector<size_t> grouping_cols;
  /// BUT ONLY condition, rewritten against the augmented schema (not
  /// owned; must outlive the plan). nullptr = none.
  const Expr* but_only = nullptr;
  ButOnlyMode but_only_mode = ButOnlyMode::kPostFilter;
  /// Emit candidate columns + quality columns (queries projecting or
  /// ordering by TOP/LEVEL/DISTANCE); otherwise candidate columns pass
  /// through as row views.
  bool emit_quality_columns = false;
  /// Parallel partitioned execution (core/bmo_parallel.h); 0/1 = serial.
  /// Ignored while the progressive top-k pushdown is active.
  size_t threads = 0;
  /// Minimum candidate rows before worker threads spin up.
  size_t parallel_min_rows = 4096;
  /// Stats flushed on Close()/destruction (not owned; may be nullptr).
  BmoRunStats* stats_sink = nullptr;
  /// The base table whose heap scan (with or without WHERE, full or index
  /// path) is the candidate stream: the child is the scan or a filter over
  /// it; nullptr otherwise. The operator then pulls slots-only batches
  /// (RowBatch::slots_only), keeps its candidates as heap slots, and the
  /// key build reads the table's column vectors by slot
  /// (core/slot_keys.h).
  const Table* table = nullptr;
  /// Slot count sealed by the snapshot's table version (`table` set): the
  /// range the column vectors cover.
  size_t key_rows = 0;
};

class BmoOperator : public PhysicalOperator {
 public:
  BmoOperator(OperatorPtr child, const CompiledPreference* pref,
              BmoOperatorConfig config, SubqueryRunner* runner);
  ~BmoOperator() override;

  const Schema& schema() const override {
    return config_.emit_quality_columns ? aug_schema_ : child_->schema();
  }
  Status Open() override;
  Result<bool> NextBatch(RowBatch* out) override;
  void Close() override;

  /// Dominance-test counters of the last Open (accumulated over
  /// partitions; survives Close for benches).
  const BmoStats& stats() const { return run_stats_.bmo; }
  /// Candidate rows consumed from the child by the last Open.
  size_t candidate_count() const { return run_stats_.candidate_count; }
  /// Full run counters of the last Open (survive Close).
  const BmoRunStats& run_stats() const { return run_stats_; }

 private:
  /// The row of candidate `i` (pulled index): read from the heap by slot,
  /// or the pulled row.
  const Row& CandidateRow(size_t i) const;
  /// Candidate `i` with its quality columns appended.
  Row BuildAugmentedRow(size_t i) const;
  Result<bool> PassesButOnly(size_t i);
  /// Copies the run counters into the configured sink (if any).
  void FlushStats();

  OperatorPtr child_;
  const CompiledPreference* pref_;
  BmoOperatorConfig config_;
  SubqueryRunner* runner_;
  Schema aug_schema_;
  std::vector<BoundExpr> leaf_attrs_;  // preference leaves, bound to child_
  BoundExpr but_only_;  // config_.but_only bound to aug_schema_
  std::vector<std::pair<QualityFn, size_t>> quality_slots_;

  /// The candidates by pulled index: heap slots when config_.table is set,
  /// else the pulled rows.
  std::vector<size_t> slots_;
  std::vector<RowRef> rows_;
  /// Packed SoA keys of the candidates, read by every partition / chunk;
  /// indexed by pulled index.
  KeyStore keys_;
  /// Built only for augmented rows (BUT ONLY, quality columns):
  std::vector<size_t> partition_of_;  // by pulled index; empty: one
  std::vector<std::vector<double>> min_scores_;  // per partition per leaf
  std::vector<size_t> survivors_;  // pulled indices, in emission order
  size_t pos_ = 0;
  BmoRunStats run_stats_;
  /// Budget reservations for this run's buffers (pulled rows + key store),
  /// held until Close so streamed results stay accounted. One holder per
  /// budget level.
  ScopedMemoryCharge stmt_charge_;
  ScopedMemoryCharge engine_charge_;
};

}  // namespace prefsql
