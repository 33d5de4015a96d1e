#include "engine/operators/scan.h"

#include <algorithm>

#include "core/query_context.h"

namespace prefsql {

SeqScanOperator::SeqScanOperator(Schema schema, const std::vector<Row>* rows,
                                 std::shared_ptr<ResultTable> keepalive)
    : schema_(std::move(schema)),
      rows_(rows),
      keepalive_(std::move(keepalive)) {}

SeqScanOperator::SeqScanOperator(Schema schema, ResultTable owned)
    : schema_(std::move(schema)), owned_(std::move(owned)) {
  rows_ = &owned_.rows();
}

Status SeqScanOperator::Open() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> SeqScanOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (pos_ >= rows_->size()) return false;
  const size_t take = std::min(out->capacity, rows_->size() - pos_);
  out->rows.reserve(take);
  out->sel.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->PushRow(RowRef::Borrowed(&(*rows_)[pos_ + i]));
  }
  pos_ += take;
  return true;
}

void SeqScanOperator::Close() {}

HeapScanOperator::HeapScanOperator(Schema schema, const RowHeap* heap,
                                   size_t limit, uint64_t snapshot,
                                   MvccScanCounters* counters,
                                   std::vector<CodedFilter> coded)
    : schema_(std::move(schema)),
      heap_(heap),
      limit_(limit),
      snapshot_(snapshot),
      counters_(counters),
      coded_(std::move(coded)) {}

HeapScanOperator::HeapScanOperator(Schema schema, const RowHeap* heap,
                                   std::vector<size_t> slots,
                                   uint64_t snapshot,
                                   MvccScanCounters* counters)
    : schema_(std::move(schema)),
      heap_(heap),
      limit_(slots.size()),
      snapshot_(snapshot),
      counters_(counters),
      list_mode_(true),
      slots_(std::move(slots)) {}

Status HeapScanOperator::Open() {
  pos_ = 0;
  tick_ = 0;
  scanned_ = 0;
  skipped_ = 0;
  return Status::OK();
}

size_t HeapScanOperator::GatherCodeMatches(size_t len, size_t* dst) const {
  // Branch-free store-and-advance: every slot is written, and the cursor
  // moves past it only when its code passes. The first filter gathers the
  // run; each further one compacts the gathered slots in place. The codes
  // of one table share the heap's bucket boundaries, so every run starts
  // at pos_ and covers at least `len` slots.
  size_t run_len = 0;
  if (coded_.empty()) {
    for (size_t i = 0; i < len; ++i) dst[i] = pos_ + i;
    return len;
  }
  const uint8_t* truth = coded_[0].truth.data();
  const uint16_t* codes = coded_[0].codes->Run(pos_, &run_len);
  size_t n = 0;
  for (size_t i = 0; i < len; ++i) {
    dst[n] = pos_ + i;
    n += truth[codes[i]];
  }
  for (size_t f = 1; f < coded_.size(); ++f) {
    truth = coded_[f].truth.data();
    codes = coded_[f].codes->Run(pos_, &run_len);
    size_t kept = 0;
    for (size_t j = 0; j < n; ++j) {
      const size_t slot = dst[j];
      dst[kept] = slot;
      kept += truth[codes[slot - pos_]];
    }
    n = kept;
  }
  return n;
}

Result<bool> HeapScanOperator::NextBatch(RowBatch* out) {
  // Slots one run covers at most (one interrupt poll per run). A run
  // covers as many slots as the batch has room for; under coded filters,
  // which keep a fraction of them, at least kMinRun. A run that fills the
  // batch stops at its last kept slot, and the next pull re-gathers the
  // rest.
  constexpr size_t kCodeStretch = 4096;
  constexpr size_t kMinRun = 256;
  if (list_mode_) return NextListBatch(out);
  out->Clear();
  std::vector<size_t>& slots = out->slots;
  // Runs of rejected or dead versions keep sweeping (the slot range is
  // sealed, so this terminates) rather than hand back an empty batch; the
  // per-run poll keeps such a sweep interruptible mid-batch.
  while (pos_ < limit_ && slots.size() < out->capacity) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    size_t bucket, offset;
    RowHeap::Locate(pos_, &bucket, &offset);
    const size_t room = out->capacity - slots.size();
    const size_t len = std::min(
        {limit_ - pos_, (RowHeap::kFirstBucketSize << bucket) - offset,
         kCodeStretch, coded_.empty() ? room : std::max(room, kMinRun)});
    const size_t base = slots.size();
    slots.resize(base + len);
    size_t* run = slots.data() + base;
    const size_t matches = GatherCodeMatches(len, run);
    // Visibility below the sealed size: an unflagged slot is visible; a
    // flagged one is visible iff the snapshot precedes its end stamp.
    const std::atomic<uint8_t>* ended = heap_->EndedRun(pos_);
    size_t tested = 0;
    size_t kept = 0;
    size_t next = pos_ + len;
    while (tested < matches) {
      const size_t slot = run[tested++];
      const bool visible =
          ended[slot - pos_].load(std::memory_order_relaxed) == 0 ||
          snapshot_ < heap_->end_epoch(slot);
      run[kept] = slot;
      kept += visible;
      if (base + kept == out->capacity) {
        if (tested < matches) next = slot + 1;
        break;
      }
    }
    scanned_ += tested;
    skipped_ += tested - kept;
    slots.resize(base + kept);
    pos_ = next;
  }
  return FinishBatch(out);
}

Result<bool> HeapScanOperator::NextListBatch(RowBatch* out) {
  out->Clear();
  while (pos_ < limit_ && out->slots.size() < out->capacity) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    const size_t slot = slots_[pos_++];
    ++scanned_;
    if (!heap_->VisibleAt(slot, snapshot_)) {
      ++skipped_;
      continue;
    }
    out->slots.push_back(slot);
  }
  return FinishBatch(out);
}

bool HeapScanOperator::FinishBatch(RowBatch* out) const {
  if (!out->slots_only) {
    out->rows.reserve(out->slots.size());
    out->sel.reserve(out->slots.size());
    for (size_t slot : out->slots) {
      out->PushRow(RowRef::Borrowed(&heap_->row(slot)));
    }
  }
  return !out->slots.empty();
}

void HeapScanOperator::Close() {
  if (counters_ != nullptr && scanned_ > 0) {
    counters_->versions_scanned.fetch_add(scanned_, std::memory_order_relaxed);
    counters_->versions_skipped.fetch_add(skipped_, std::memory_order_relaxed);
    scanned_ = 0;
    skipped_ = 0;
  }
}

Status OneRowOperator::Open() {
  done_ = false;
  return Status::OK();
}

Result<bool> OneRowOperator::NextBatch(RowBatch* out) {
  out->Clear();
  if (done_) return false;
  done_ = true;
  out->PushRow(RowRef::Borrowed(&row_));
  return true;
}

}  // namespace prefsql
