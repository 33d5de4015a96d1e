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
      coded_(std::move(coded)),
      runs_(coded_.size()) {}

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

size_t HeapScanOperator::NextCodeMatch(size_t pos, size_t end) {
  const uint8_t* first = coded_[0].truth.data();
  while (pos < end) {
    size_t len = 0;
    for (size_t f = 0; f < coded_.size(); ++f) {
      runs_[f] = coded_[f].codes->Run(pos, &len);
    }
    len = std::min(len, end - pos);
    const uint16_t* codes = runs_[0];
    for (size_t i = 0; i < len; ++i) {
      if (!first[codes[i]]) continue;
      size_t f = 1;
      while (f < coded_.size() && coded_[f].truth[runs_[f][i]]) ++f;
      if (f == coded_.size()) return pos + i;
    }
    pos += len;
  }
  return end;
}

Result<bool> HeapScanOperator::NextBatch(RowBatch* out) {
  // Slots a code test rejects between two interrupt polls.
  constexpr size_t kCodeStretch = 4096;
  if (list_mode_) return NextListBatch(out);
  out->Clear();
  // One sweep fills the whole batch. A run of rejected or dead versions
  // keeps sweeping (the slot range is sealed, so this terminates) rather
  // than hand back an empty batch; the stride poll keeps such a sweep
  // interruptible mid-batch.
  while (pos_ < limit_ && !out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    if (!coded_.empty()) {
      const size_t end = std::min(limit_, pos_ + kCodeStretch);
      pos_ = NextCodeMatch(pos_, end);
      if (pos_ == end) continue;
    }
    size_t slot = pos_++;
    ++scanned_;
    if (!heap_->VisibleAt(slot, snapshot_)) {
      ++skipped_;
      continue;
    }
    out->PushSlotRow(&heap_->row(slot), slot);
  }
  return !out->rows.empty();
}

Result<bool> HeapScanOperator::NextListBatch(RowBatch* out) {
  out->Clear();
  while (pos_ < limit_ && !out->full()) {
    PSQL_RETURN_IF_ERROR(PollInterrupt(&tick_));
    const size_t slot = slots_[pos_++];
    ++scanned_;
    if (!heap_->VisibleAt(slot, snapshot_)) {
      ++skipped_;
      continue;
    }
    out->PushSlotRow(&heap_->row(slot), slot);
  }
  return !out->rows.empty();
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
