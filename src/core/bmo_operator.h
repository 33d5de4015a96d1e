// BmoOperator: the paper's plug-in preference selection operator (§3.2) as
// a physical pipeline operator. It pulls the candidate stream (scan/filter
// tree planned by engine/planner.h), obtains the packed preference keys —
// from the engine key cache when the run is cache-keyed and the table is
// unchanged, freshly built otherwise — partitions by the GROUPING
// attributes (§2.2.5), runs one of the BMO algorithms (core/bmo.h) per
// partition, and streams the maximal tuples to the projection tail.
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
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bmo.h"
#include "core/quality.h"
#include "util/memory_budget.h"
#include "engine/evaluator.h"
#include "engine/operators/operator.h"
#include "preference/composite.h"
#include "preference/key_cache.h"
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
  /// The packed keys came from the engine key cache (key build skipped;
  /// bmo.key_build_ns stays 0).
  bool key_cache_hit = false;
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
  /// Engine skyline/key cache to consult/fill for this run (not owned;
  /// nullptr = off). The planner sets it only when the candidate child is a
  /// bare scan of `table` (no WHERE), and the run uses it only in position
  /// mode; `key_cache_key` carries the (preference fingerprint, table id,
  /// table version) identity of the whole-table key store.
  SkylineCache* key_cache = nullptr;
  KeyCacheKey key_cache_key;
  /// Shared ownership of the compiled preference, stored into published
  /// cache entries so incremental maintenance can re-key rows after the
  /// plan is gone. Set iff `key_cache` is.
  std::shared_ptr<const CompiledPreference> cache_pref;
  /// Publish the computed maximal set as the table's skyline position list
  /// (planner sets this only when the result equals the bare skyline: full
  /// scan, no GROUPING / BUT ONLY / top-k truncation).
  bool publish_skyline = false;
  /// The base table whose heap scan (with or without WHERE, full or index
  /// path) is the candidate stream; nullptr otherwise. Its batches then
  /// carry each row's heap slot (RowBatch::slots), and the key build reads
  /// the table's column vectors by slot (core/slot_keys.h). A cache-eligible
  /// run (`key_cache` set) also runs in position mode: the dominance pass
  /// runs over slot positions into a whole-table KeyStore — slot positions,
  /// not pulled indices, are the stable id space a published entry shares
  /// with later snapshot readers.
  const Table* table = nullptr;
  /// Slot count sealed by the snapshot's table version (`table` set): the
  /// range the column vectors cover and the key space of the position-mode
  /// KeyStore. Slots holding versions invisible at the snapshot still
  /// occupy a key row — GC-cleared payloads get neutral keys, sound because
  /// dominance only runs over candidate ids.
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
  /// Local (pulled) index of candidate id `id`. Ids are storage positions
  /// in position mode and pulled indices otherwise.
  size_t LocalOf(size_t id) const {
    return use_positions_ ? local_of_.at(id) : id;
  }
  Row BuildAugmentedRow(size_t id) const;
  Result<bool> PassesButOnly(size_t id);
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

  std::vector<RowRef> rows_;
  /// Packed SoA keys shared by every partition / chunk: freshly built, or
  /// borrowed wholesale from the engine key cache (immutable either way).
  /// Indexed by candidate id (storage positions in position mode).
  std::shared_ptr<const KeyStore> keys_;
  /// Position mode engaged at runtime: the run is cache-keyed, config_.table
  /// is set and every pulled row came with its distinct heap slot.
  bool use_positions_ = false;
  /// Pulled index -> heap slot; empty unless config_.table is set and every
  /// batch carried slots.
  std::vector<size_t> slots_;
  std::unordered_map<size_t, size_t> local_of_;  // storage pos -> pulled
  std::vector<size_t> partition_of_;  // by pulled index
  std::vector<std::vector<double>> min_scores_;  // per partition per leaf
  std::vector<size_t> survivors_;  // candidate ids, in emission order
  size_t pos_ = 0;
  BmoRunStats run_stats_;
  /// Budget reservations for this run's buffers (pulled rows + key store),
  /// held until Close so streamed results stay accounted. One holder per
  /// budget level.
  ScopedMemoryCharge stmt_charge_;
  ScopedMemoryCharge engine_charge_;
};

}  // namespace prefsql
