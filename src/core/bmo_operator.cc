#include "core/bmo_operator.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/bmo_parallel.h"
#include "core/query_context.h"
#include "core/slot_keys.h"

namespace prefsql {

std::string BmoQualityColumnName(QualityFn fn, size_t leaf) {
  const char* tag = fn == QualityFn::kTop     ? "top"
                    : fn == QualityFn::kLevel ? "level"
                                              : "dist";
  return "$" + std::string(tag) + "_" + std::to_string(leaf);
}

BmoOperator::BmoOperator(OperatorPtr child, const CompiledPreference* pref,
                         BmoOperatorConfig config, SubqueryRunner* runner)
    : child_(std::move(child)),
      pref_(pref),
      config_(std::move(config)),
      runner_(runner) {
  std::vector<ColumnInfo> aug_cols = child_->schema().columns();
  for (size_t l = 0; l < pref_->num_leaves(); ++l) {
    for (QualityFn fn :
         {QualityFn::kTop, QualityFn::kLevel, QualityFn::kDistance}) {
      quality_slots_.emplace_back(fn, l);
      aug_cols.push_back({"", BmoQualityColumnName(fn, l)});
    }
  }
  aug_schema_ = Schema(std::move(aug_cols));
  leaf_attrs_ = pref_->BindLeaves(child_->schema());
  if (config_.but_only != nullptr) {
    but_only_ = BoundExpr(*config_.but_only, aug_schema_, nullptr);
  }
}

BmoOperator::~BmoOperator() { FlushStats(); }

Status BmoOperator::Open() {
  PSQL_RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  keys_.reset();
  survivors_.clear();
  use_positions_ = false;
  slots_.clear();
  local_of_.clear();
  pos_ = 0;
  run_stats_ = BmoRunStats{};
  stmt_charge_.Reset();
  engine_charge_.Reset();
  // The ambient statement context: polled in the pull and key-build loops,
  // handed to the BMO algorithms through BmoOptions (explicitly, so
  // bmo_parallel workers see it across pool threads), and consulted before
  // every cache publication — an interrupted run must not publish partial
  // entries.
  QueryContext* qctx = CurrentQueryContext();
  config_.bmo.ctx = qctx;

  // 1. Pull the candidate stream. Base-table rows stay borrowed (no tuple
  //    copies between scan and BMO). The scan/filter subtree hands over ~1k
  //    rows per virtual call — one MVCC visibility sweep and one interrupt
  //    check per batch — so the key build and the SIMD dominance kernels
  //    below see the candidates at feed, not pull, speed. A heap scan's
  //    batches also carry each row's slot; one batch without them (or a
  //    slot outside the snapshot's range) falls the run back to keying rows.
  RowBatch batch;
  bool have_slots = config_.table != nullptr;
  while (true) {
    PSQL_ASSIGN_OR_RETURN(bool more, PullBatch(*child_, &batch));
    if (!more) break;
    run_stats_.candidate_count += batch.sel.size();
    have_slots = have_slots && batch.slots.size() == batch.rows.size();
    for (uint32_t idx : batch.sel) {
      rows_.push_back(std::move(batch.rows[idx]));
      if (have_slots) {
        have_slots = batch.slots[idx] < config_.key_rows;
        slots_.push_back(batch.slots[idx]);
      }
    }
  }
  if (!have_slots) slots_.clear();
  const size_t n = rows_.size();

  // 1b. Position mode: a cache-keyed run (config_.key_cache set) over heap
  //     slots keys the whole table by slot, so the dominance pass runs over
  //     the shared whole-table KeyStore. Without slots, or with a duplicate
  //     slot, the run falls back to the local un-cached path. The pass
  //     polls the deadline: over a large table it runs long enough that a
  //     statement timeout would otherwise fire late.
  size_t tick = 0;
  if (config_.key_cache != nullptr && have_slots) {
    bool ok = true;
    local_of_.reserve(n);
    for (size_t i = 0; i < n && ok; ++i) {
      PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
      ok = local_of_.emplace(slots_[i], i).second;
    }
    if (!ok) local_of_.clear();
    use_positions_ = ok;
  }
  // Candidate id of pulled row i: its heap slot in position mode (an index
  // into the whole-table KeyStore), the pulled index otherwise.
  auto id_of = [&](size_t i) { return use_positions_ ? slots_[i] : i; };
  const size_t key_rows = use_positions_ ? config_.key_rows : n;

  // 2. Packed keys: an engine cache hit reuses the whole store (the cached
  //    row count matching the expected count re-checks the planner's row
  //    correspondence); otherwise build into a fresh store — appended
  //    straight into the packed KeyStore, no per-tuple key allocation —
  //    and publish it when this run is cache-keyed. In position mode the
  //    store covers every heap slot of the snapshot, so later readers of
  //    the same table version share it by slot.
  if (use_positions_) {
    auto cached = config_.key_cache->Lookup(config_.key_cache_key);
    if (cached != nullptr && cached->keys != nullptr &&
        cached->keys->size() == key_rows &&
        cached->keys->num_leaves() == pref_->num_leaves()) {
      keys_ = cached->keys;
      run_stats_.key_cache_hit = true;  // key_build_ns stays 0
    }
  }
  if (keys_ == nullptr) {
    using Clock = std::chrono::steady_clock;
    // Charge the key store up front (scores: 8 bytes, explicit ids: 4 bytes
    // per leaf per row) — the single largest allocation of the run. A
    // refused charge surfaces kResourceExhausted before the memory exists.
    if (qctx != nullptr) {
      PSQL_RETURN_IF_ERROR(qctx->ChargeMemory(
          key_rows * pref_->num_leaves() * (sizeof(double) + sizeof(int32_t)),
          &stmt_charge_, &engine_charge_));
    }
    auto built = std::make_shared<KeyStore>(pref_->num_leaves());
    built->Reserve(key_rows);
    const auto t0 = Clock::now();
    if (have_slots) {
      PSQL_ASSIGN_OR_RETURN(
          const SlotKeys slot_keys,
          SlotKeys::Make(*pref_, leaf_attrs_, child_->schema(),
                         *config_.table, config_.key_rows, runner_));
      run_stats_.vector_leaves = slot_keys.vector_leaves();
      if (use_positions_) {
        // Key every slot of the snapshot's key space, dead versions
        // included (slot = key row). GC-cleared payloads can no longer be
        // evaluated; they get neutral worst-score keys, which is sound
        // because cleared slots are invisible at every servable snapshot
        // and dominance only ever runs over candidate (visible) ids.
        const RowHeap& heap = config_.table->heap();
        for (size_t slot = 0; slot < key_rows; ++slot) {
          PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
          if (heap.payload_cleared(slot)) {
            for (size_t l = 0; l < pref_->num_leaves(); ++l) {
              built->PushLeaf(kWorstScore, -1);
            }
            built->CommitRow();
            continue;
          }
          PSQL_RETURN_IF_ERROR(slot_keys.Append(slot, built.get()));
        }
      } else {
        // Candidates are visible versions, so their payloads are live.
        for (size_t slot : slots_) {
          PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
          PSQL_RETURN_IF_ERROR(slot_keys.Append(slot, built.get()));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        PSQL_RETURN_IF_ERROR(PollInterrupt(&tick));
        PSQL_RETURN_IF_ERROR(pref_->AppendKey(leaf_attrs_, child_->schema(),
                                              rows_[i].row(), built.get(),
                                              runner_));
      }
    }
    run_stats_.bmo.key_build_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    keys_ = std::move(built);
    if (use_positions_) {
      if (qctx != nullptr) PSQL_RETURN_IF_ERROR(qctx->CheckInterrupt());
      auto entry = std::make_shared<SkylineEntry>();
      entry->keys = keys_;
      entry->pref = config_.cache_pref;
      config_.key_cache->Insert(config_.key_cache_key, std::move(entry));
    }
  }
  const KeyStore& keys = *keys_;

  // 3. GROUPING partitions (§2.2.5): BMO within each partition. Partitions
  //    hold candidate ids; partition_of_ stays pulled-indexed.
  std::vector<std::vector<size_t>> partitions;
  partition_of_.assign(n, 0);
  if (config_.grouping_cols.empty()) {
    partitions.emplace_back();
    partitions[0].reserve(n);
    for (size_t i = 0; i < n; ++i) partitions[0].push_back(id_of(i));
  } else {
    std::unordered_map<size_t, std::vector<size_t>> by_hash;  // hash->part ids
    std::vector<Row> part_keys;
    for (size_t i = 0; i < n; ++i) {
      Row gkey;
      gkey.reserve(config_.grouping_cols.size());
      for (size_t c : config_.grouping_cols) gkey.push_back(rows_[i].row()[c]);
      size_t h = HashRow(gkey);
      size_t part = SIZE_MAX;
      for (size_t cand_part : by_hash[h]) {
        if (RowsIdentityEqual(part_keys[cand_part], gkey)) {
          part = cand_part;
          break;
        }
      }
      if (part == SIZE_MAX) {
        part = partitions.size();
        partitions.emplace_back();
        part_keys.push_back(std::move(gkey));
        by_hash[h].push_back(part);
      }
      partition_of_[i] = part;
      partitions[part].push_back(id_of(i));
    }
  }

  // 4. Observed minimum score per leaf per partition (quality offsets for
  //    HIGHEST/LOWEST distances, computed over the unfiltered candidates).
  min_scores_.assign(partitions.size(), {});
  for (size_t p = 0; p < partitions.size(); ++p) {
    min_scores_[p].assign(pref_->num_leaves(), kWorstScore);
    for (size_t id : partitions[p]) {
      for (size_t l = 0; l < pref_->num_leaves(); ++l) {
        min_scores_[p][l] = std::min(min_scores_[p][l], keys.score(id, l));
      }
    }
  }

  // 5. BUT ONLY pre-filtering runs serially first — it goes through the
  //    expression evaluator (subqueries, catalog), which must stay on this
  //    thread.
  run_stats_.partitions = partitions.size();
  if (config_.but_only != nullptr &&
      config_.but_only_mode == ButOnlyMode::kPreFilter) {
    for (auto& part : partitions) {
      std::vector<size_t> filtered;
      for (size_t i : part) {
        PSQL_ASSIGN_OR_RETURN(bool pass, PassesButOnly(i));
        if (pass) filtered.push_back(i);
      }
      part = std::move(filtered);
    }
  }

  // 6. BMO per partition — parallel over a thread pool when configured and
  //    worthwhile; dominance tests only touch the prebuilt keys. The
  //    progressive top-k pushdown stays serial (truncated local skylines do
  //    not merge exactly).
  std::vector<size_t> maximal;
  bool parallel = config_.threads > 1 && !config_.top_k &&
                  n >= config_.parallel_min_rows;
  if (parallel) {
    ParallelBmoOptions par;
    par.threads = config_.threads;
    // Chunk at the same granularity that justified spinning up threads, so
    // a partition just past the threshold still splits across the pool.
    par.min_chunk = std::max<size_t>(1, config_.parallel_min_rows);
    ParallelBmoStats par_stats;
    maximal = ComputeBmoPartitionedParallel(*pref_, keys, partitions,
                                            config_.bmo, par, &par_stats);
    // Keep the operator-side key-build estimate across the wholesale copy.
    const uint64_t built_ns = run_stats_.bmo.key_build_ns;
    run_stats_.bmo = par_stats.bmo;
    run_stats_.bmo.key_build_ns = built_ns;
    run_stats_.threads_used = par_stats.threads_used;
    // Workers bail with partial survivor sets on an interrupt; discard.
    if (qctx != nullptr && qctx->interrupted()) return qctx->LatchedStatus();
  } else {
    for (const auto& part : partitions) {
      BmoStats part_stats;
      std::vector<size_t> bmo =
          config_.top_k ? ComputeBmoTopK(*pref_, keys, part, *config_.top_k,
                                         config_.bmo, &part_stats)
                        : ComputeBmo(*pref_, keys, part, config_.bmo,
                                     &part_stats);
      run_stats_.bmo.comparisons += part_stats.comparisons;
      run_stats_.bmo.passes =
          std::max(run_stats_.bmo.passes, part_stats.passes);
      run_stats_.bmo.kernel = part_stats.kernel;
      run_stats_.bmo.simd = part_stats.simd;
      maximal.insert(maximal.end(), bmo.begin(), bmo.end());
      if (qctx != nullptr && qctx->interrupted()) {
        return qctx->LatchedStatus();
      }
    }
    std::sort(maximal.begin(), maximal.end());
  }

  // 7. BUT ONLY post-filtering (serial, evaluator-bound like the pre pass).
  if (config_.but_only != nullptr &&
      config_.but_only_mode == ButOnlyMode::kPostFilter) {
    for (size_t id : maximal) {
      PSQL_ASSIGN_OR_RETURN(bool pass, PassesButOnly(id));
      if (pass) survivors_.push_back(id);
    }
  } else {
    survivors_ = std::move(maximal);
  }
  // 8. Publish the skyline position list when this run computed the bare
  //    whole-table skyline (survivors_ is then heap slots of the maximal
  //    visible versions), upgrading the keys-only entry published above.
  if (use_positions_ && config_.publish_skyline &&
      keys_->size() == key_rows) {
    if (qctx != nullptr) PSQL_RETURN_IF_ERROR(qctx->CheckInterrupt());
    auto entry = std::make_shared<SkylineEntry>();
    entry->keys = keys_;
    entry->pref = config_.cache_pref;
    std::vector<size_t> ascending = survivors_;
    std::sort(ascending.begin(), ascending.end());
    entry->skyline = std::move(ascending);
    config_.key_cache->Insert(config_.key_cache_key, std::move(entry));
  }
  // Emitted in candidate order (like LIMIT without ORDER BY, the particular
  // maximal tuples of a top-k run are unspecified, but the order is stable).
  // In position mode ids are heap slots — map back to pulled order.
  if (use_positions_) {
    std::sort(survivors_.begin(), survivors_.end(),
              [this](size_t a, size_t b) {
                return local_of_.at(a) < local_of_.at(b);
              });
  }
  run_stats_.result_count = survivors_.size();
  return Status::OK();
}

Row BmoOperator::BuildAugmentedRow(size_t id) const {
  const size_t local = LocalOf(id);
  Row row = rows_[local].row();
  const auto& mins = min_scores_[partition_of_[local]];
  for (auto [fn, leaf] : quality_slots_) {
    const BasePreference& base = *pref_->leaf(leaf).pref;
    const LeafKey key = keys_->key(id, leaf);
    switch (fn) {
      case QualityFn::kTop:
        row.push_back(Value::Bool(ComputeTop(base, key, mins[leaf])));
        break;
      case QualityFn::kLevel:
        row.push_back(Value::Int(ComputeLevel(base, key, mins[leaf])));
        break;
      case QualityFn::kDistance:
        row.push_back(Value::Double(ComputeDistance(base, key, mins[leaf])));
        break;
    }
  }
  return row;
}

Result<bool> BmoOperator::PassesButOnly(size_t id) {
  Row aug = BuildAugmentedRow(id);
  EvalContext ctx{&aug_schema_, &aug, nullptr, runner_};
  return EvaluatePredicate(but_only_, ctx);
}

Result<bool> BmoOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= survivors_.size()) return false;
  const size_t take = std::min(out->capacity, survivors_.size() - pos_);
  out->rows.reserve(take);
  out->sel.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    size_t id = survivors_[pos_ + i];
    if (config_.emit_quality_columns) {
      out->PushRow(RowRef::Owned(BuildAugmentedRow(id)));
    } else {
      out->PushRow(std::move(rows_[LocalOf(id)]));
    }
  }
  pos_ += take;
  return true;
}

void BmoOperator::Close() {
  child_->Close();
  rows_.clear();
  keys_.reset();
  stmt_charge_.Reset();
  engine_charge_.Reset();
  slots_.clear();
  local_of_.clear();
  partition_of_.clear();
  min_scores_.clear();
  survivors_.clear();
  // run_stats_ survives Close (benches, Connection::last_stats) — flush it
  // now so early-stopping consumers still observe correct counters.
  FlushStats();
}

void BmoOperator::FlushStats() {
  if (config_.stats_sink != nullptr) *config_.stats_sink = run_stats_;
}

}  // namespace prefsql
