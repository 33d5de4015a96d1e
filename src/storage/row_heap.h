// RowHeap: an append-only, position-stable multi-version row store.
//
// MVCC turns every DML statement into appends: INSERT appends a version with
// begin = commit epoch, DELETE end-stamps the victim's slot, UPDATE
// end-stamps the old version and appends the new one. Slots are never moved
// or reused, which gives three properties the engine builds on:
//
//   1. Readers never block writers. A concurrent reader at snapshot S only
//      dereferences slots below a size it loaded with acquire semantics
//      (published by the writer with release), and filters by
//      begin <= S < end — end stamps are atomic, so a reader races a
//      DELETE only into one of two correct outcomes.
//   2. Slot positions are durable identifiers. Index entries and the
//      per-slot column codes and vectors address tuples by slot position;
//      because positions never shift, DML appends/re-stamps instead of
//      remapping them.
//   3. Borrowed RowRefs stay valid. Rows live in chunked buckets (geometric
//      doubling, starting at kFirstBucketSize), never reallocated, so a
//      streaming operator can hold `const Row*` across concurrent appends.
//
// A range scan at S tests visibility without the slot header. Every slot
// below the heap size S's table version sealed (Table::HeapSizeAt) has
// begin <= S: a statement appends, seals, then publishes its epoch. So only
// `end` can hide such a version, and the heap keeps a dense per-slot
// "ended" byte next to the slots, in the same bucket layout. MarkDead sets
// it after the end stamp and before the statement publishes, so a reader
// at S sees the byte of every version ended at or before S. A slot whose
// byte is 0 is visible; only a flagged one loads `end` (a flag of a
// concurrent, unpublished stamp reads an end > S or the old infinity,
// visible either way). A slot the sweep cleared stays flagged, and its
// end <= horizon <= S keeps it hidden. Index hits are not bounded by the
// seal, so a list scan tests the full window (VisibleAt).
//
// Superseded payloads are reclaimed by CollectGarbage(horizon), which the
// engine only runs while it holds the catalog lock exclusively (no active
// readers) with horizon <= the oldest pinned snapshot; the slot header
// survives so positions stay stable, only the cell payload is freed. The
// sweep visits only the slots end-stamped since it last ran (the dead-slot
// list MarkDead appends to), never the whole heap: a sweep after an INSERT
// or an idle sweep visits nothing, and one after an UPDATE/DELETE visits
// what that statement stamped plus the versions a pinned snapshot kept
// alive at earlier sweeps.

#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/epoch.h"
#include "types/value.h"

namespace prefsql {

class RowHeap {
 public:
  struct Slot {
    Row row;
    // Plain: written before the size_ release store that publishes the slot.
    uint64_t begin = 0;
    // Atomic: a DELETE/UPDATE stamps it while concurrent readers test
    // visibility.
    std::atomic<uint64_t> end{kInfiniteEpoch};
    // Payload reclaimed by CollectGarbage (row is empty). Only flipped while
    // no readers are active, but atomic so code on other writer iterations
    // reads it cheaply.
    std::atomic<bool> cleared{false};
  };

  static constexpr size_t kFirstBucketSize = 512;
  static constexpr size_t kNumBuckets = 48;

  RowHeap() = default;
  ~RowHeap() {
    for (auto& b : buckets_) {
      delete[] b.load(std::memory_order_relaxed);
    }
    for (auto& b : ended_) {
      delete[] b.load(std::memory_order_relaxed);
    }
  }
  RowHeap(const RowHeap&) = delete;
  RowHeap& operator=(const RowHeap&) = delete;

  /// Number of published slots. Acquire: all slots below the returned size
  /// are fully initialized for this thread.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Appends one row version (single writer at a time; the engine holds its
  /// writer mutex). Returns the new slot position.
  size_t Append(Row row, uint64_t begin) {
    size_t pos = size_.load(std::memory_order_relaxed);
    Slot& s = SlotForAppend(pos);
    s.row = std::move(row);
    s.begin = begin;
    size_.store(pos + 1, std::memory_order_release);
    return pos;
  }

  /// End-stamps `pos`: the version stops being visible to snapshots >= end,
  /// and the next sweep considers it (single writer, like Append). The
  /// stamp and the ended byte are in place before the caller publishes the
  /// statement's epoch.
  void MarkDead(size_t pos, uint64_t end) {
    slot_mut(pos).end.store(end, std::memory_order_release);
    size_t b, off;
    Locate(pos, &b, &off);
    ended_[b].load(std::memory_order_acquire)[off].store(
        1, std::memory_order_release);
    dead_.push_back(pos);
  }

  const Row& row(size_t pos) const { return slot(pos).row; }
  uint64_t begin_epoch(size_t pos) const { return slot(pos).begin; }
  uint64_t end_epoch(size_t pos) const {
    return slot(pos).end.load(std::memory_order_acquire);
  }
  bool payload_cleared(size_t pos) const {
    return slot(pos).cleared.load(std::memory_order_acquire);
  }

  bool VisibleAt(size_t pos, uint64_t snapshot) const {
    const Slot& s = slot(pos);
    return s.begin <= snapshot &&
           snapshot < s.end.load(std::memory_order_acquire);
  }

  /// The ended bytes from `pos` (a published slot) to the end of its
  /// bucket: nonzero once the slot was end-stamped. Together with the seal
  /// invariant (see the header comment) a range scan at `snapshot` keeps
  /// slot p below the sealed size iff its byte is 0 or snapshot < end.
  const std::atomic<uint8_t>* EndedRun(size_t pos) const {
    size_t b, off;
    Locate(pos, &b, &off);
    return ended_[b].load(std::memory_order_acquire) + off;
  }

  /// Frees payloads of versions dead at or before `horizon` (end <= horizon
  /// means no snapshot >= horizon can see them; the caller guarantees no
  /// older snapshot is pinned and no readers are active). Visits only the
  /// dead-slot list; entries still visible to some snapshot >= horizon stay
  /// listed for a later sweep. Slot headers are kept so positions remain
  /// stable. Returns the number of payloads freed.
  size_t CollectGarbage(uint64_t horizon) {
    size_t freed = 0;
    size_t kept = 0;
    for (size_t pos : dead_) {
      Slot& s = slot_mut(pos);
      if (s.cleared.load(std::memory_order_relaxed)) continue;
      if (s.end.load(std::memory_order_relaxed) <= horizon) {
        s.row = Row();
        s.cleared.store(true, std::memory_order_release);
        ++freed;
      } else {
        dead_[kept++] = pos;
      }
    }
    dead_.resize(kept);
    return freed;
  }

  /// Slots end-stamped but not yet freed: what the next sweep visits.
  size_t pending_dead() const { return dead_.size(); }

  /// Bucket b holds kFirstBucketSize << b slots; cumulative capacity before
  /// bucket b is kFirstBucketSize * (2^b - 1). Column codes and numeric
  /// vectors share the layout.
  static void Locate(size_t pos, size_t* bucket, size_t* offset) {
    const size_t b =
        static_cast<size_t>(std::bit_width(pos / kFirstBucketSize + 1)) - 1;
    *bucket = b;
    *offset = pos - kFirstBucketSize * ((size_t{1} << b) - 1);
  }

 private:
  const Slot& slot(size_t pos) const {
    size_t b, off;
    Locate(pos, &b, &off);
    return buckets_[b].load(std::memory_order_acquire)[off];
  }
  Slot& slot_mut(size_t pos) {
    size_t b, off;
    Locate(pos, &b, &off);
    return buckets_[b].load(std::memory_order_acquire)[off];
  }

  Slot& SlotForAppend(size_t pos) {
    size_t b, off;
    Locate(pos, &b, &off);
    Slot* bucket = buckets_[b].load(std::memory_order_relaxed);
    if (bucket == nullptr) {
      // Value-initialized: every ended byte starts at 0.
      ended_[b].store(new std::atomic<uint8_t>[kFirstBucketSize << b](),
                      std::memory_order_release);
      bucket = new Slot[kFirstBucketSize << b];
      // Release so a reader that later observes the published size also
      // observes the bucket pointers and their initialized slots.
      buckets_[b].store(bucket, std::memory_order_release);
    }
    return bucket[off];
  }

  std::array<std::atomic<Slot*>, kNumBuckets> buckets_{};
  // Per-slot ended bytes, one array per slot bucket (EndedRun).
  std::array<std::atomic<std::atomic<uint8_t>*>, kNumBuckets> ended_{};
  std::atomic<size_t> size_{0};
  // Slots end-stamped and not yet freed, in stamping order. Written by
  // MarkDead (the single writer) and CollectGarbage (no writer or reader
  // active); the engine's DDL lock orders the two.
  std::vector<size_t> dead_;
};

}  // namespace prefsql
