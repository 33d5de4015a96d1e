// MVCC epoch machinery: commit-epoch allocation, snapshot pinning, and the
// ambient snapshot scope readers use to agree on a point-in-time view.
//
// Every committed DML statement gets one epoch. Row versions carry
// [begin, end) epoch stamps (see row_heap.h); a reader pins the current
// epoch when its statement (or streaming Cursor) opens and sees exactly the
// versions with begin <= snapshot < end. Writers allocate the next epoch,
// stamp their changes, and publish it once the statement's effects are
// complete — readers either observe the whole statement or none of it.
//
// The pin registry tracks every snapshot still held by an open statement or
// cursor so garbage collection never destroys state an active reader can
// still see (MinPinnedOr is the GC horizon).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>

namespace prefsql {

/// `end` stamp of a live (not yet superseded/deleted) row version.
inline constexpr uint64_t kInfiniteEpoch = ~0ULL;

/// Allocates commit epochs and tracks pinned reader snapshots.
///
/// Thread-safety contract: `BeginWrite`/`Publish` are called by one writer
/// at a time (the engine serializes DML under its writer mutex); everything
/// else is safe from any thread.
class EpochManager {
 public:
  /// Latest published commit epoch. An acquire load: a reader that observes
  /// epoch E also observes every row stamp and payload written by the
  /// statement that published E.
  uint64_t current() const { return epoch_.load(std::memory_order_acquire); }

  /// Allocates the commit epoch for the next write statement. Writers are
  /// serialized externally, so current()+1 is collision-free.
  uint64_t BeginWrite() { return current() + 1; }

  /// Publishes `epoch` after all of its row stamps are in place (release
  /// store — pairs with the acquire in current()).
  void Publish(uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }

  /// Pins the current epoch as a reader snapshot; returns it. The snapshot
  /// stays protected from GC until the matching Unpin.
  uint64_t Pin() {
    std::lock_guard<std::mutex> g(mu_);
    uint64_t snapshot = current();
    pins_.insert(snapshot);
    return snapshot;
  }

  void Unpin(uint64_t snapshot) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = pins_.find(snapshot);
    if (it != pins_.end()) pins_.erase(it);
  }

  /// Oldest pinned snapshot, or `fallback` when nothing is pinned. Used as
  /// the GC horizon.
  uint64_t MinPinnedOr(uint64_t fallback) const {
    std::lock_guard<std::mutex> g(mu_);
    return pins_.empty() ? fallback : *pins_.begin();
  }

  size_t pinned_count() const {
    std::lock_guard<std::mutex> g(mu_);
    return pins_.size();
  }

 private:
  std::atomic<uint64_t> epoch_{0};
  mutable std::mutex mu_;
  std::multiset<uint64_t> pins_;
};

/// Movable RAII handle for a pinned snapshot (held by statements for their
/// duration and by streaming Cursors for their whole lifetime).
class SnapshotPin {
 public:
  SnapshotPin() = default;
  explicit SnapshotPin(EpochManager* epochs)
      : epochs_(epochs), snapshot_(epochs->Pin()) {}
  ~SnapshotPin() { Release(); }

  SnapshotPin(SnapshotPin&& other) noexcept
      : epochs_(std::exchange(other.epochs_, nullptr)),
        snapshot_(other.snapshot_) {}
  SnapshotPin& operator=(SnapshotPin&& other) noexcept {
    if (this != &other) {
      Release();
      epochs_ = std::exchange(other.epochs_, nullptr);
      snapshot_ = other.snapshot_;
    }
    return *this;
  }
  SnapshotPin(const SnapshotPin&) = delete;
  SnapshotPin& operator=(const SnapshotPin&) = delete;

  bool pinned() const { return epochs_ != nullptr; }
  uint64_t snapshot() const { return snapshot_; }

  void Release() {
    if (epochs_ != nullptr) {
      epochs_->Unpin(snapshot_);
      epochs_ = nullptr;
    }
  }

 private:
  EpochManager* epochs_ = nullptr;
  uint64_t snapshot_ = 0;
};

// ---------------------------------------------------------------------------
// Ambient snapshot scope.
//
// Scans and the planner capture their read epoch at construction. Plumbing
// the epoch through every operator/planner constructor would touch dozens of
// signatures for a value that is constant per statement, so the engine
// instead establishes a thread-local scope around each statement execution
// (and Cursor::Next re-establishes the cursor's pinned snapshot each pull,
// covering subplans materialized lazily during streaming). Code that needs
// the read epoch asks AmbientSnapshotOr(fallback); outside any scope it
// falls back to the caller-supplied current epoch.
// ---------------------------------------------------------------------------

namespace epoch_internal {
struct AmbientState {
  uint64_t snapshot = 0;
  bool set = false;
};
inline AmbientState& TlsAmbient() {
  thread_local AmbientState state;
  return state;
}
}  // namespace epoch_internal

/// Establishes `snapshot` as the ambient read epoch for this thread for the
/// scope's lifetime (save/restore, so scopes nest).
class ScopedSnapshot {
 public:
  explicit ScopedSnapshot(uint64_t snapshot)
      : saved_(epoch_internal::TlsAmbient()) {
    epoch_internal::TlsAmbient() = {snapshot, true};
  }
  ~ScopedSnapshot() { epoch_internal::TlsAmbient() = saved_; }
  ScopedSnapshot(const ScopedSnapshot&) = delete;
  ScopedSnapshot& operator=(const ScopedSnapshot&) = delete;

 private:
  epoch_internal::AmbientState saved_;
};

/// The ambient read epoch, or `fallback` when no scope is active (direct
/// single-threaded Database/Executor use, tests).
inline uint64_t AmbientSnapshotOr(uint64_t fallback) {
  const auto& state = epoch_internal::TlsAmbient();
  return state.set ? state.snapshot : fallback;
}

inline bool HasAmbientSnapshot() { return epoch_internal::TlsAmbient().set; }

}  // namespace prefsql
