// QueryContext: per-statement resource-governance state — deadline,
// cooperative cancellation flag, and memory budgets — threaded through the
// executor, the operator tree, and all BMO algorithms.
//
// The engine arms one context per statement (deadline from
// `SET statement_timeout_ms`, cancel flag reachable cross-thread through
// Session::CancelCurrent). Hot loops call CheckInterrupt() every
// kInterruptStride iterations; the first trip latches a sticky status
// (kTimeout or kCancelled) so every layer that asks afterwards sees the
// same verdict, and the operator tree unwinds through the existing
// early-Close cleanup path (stats flushed, snapshot pin released, cursor
// lock dropped).
//
// Like the ambient snapshot scope in storage/epoch.h, the context rides a
// thread-local so operator signatures stay unchanged: the engine (and
// Cursor::Next, per pull) establishes a ScopedQueryContext around
// execution; code that wants to cooperate asks CurrentQueryContext().
// Worker threads in bmo_parallel receive the context explicitly through
// BmoOptions instead (the thread-local does not cross pool threads).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/memory_budget.h"
#include "util/status.h"

namespace prefsql {

/// Counters of the batch pipeline, owned by the statement's QueryContext.
/// Pipeline sinks (DrainToTable, Cursor refills, the sort/BMO/aggregate/join
/// feeds) count each batch they pull through PullBatch. Unsynchronized by
/// design: the operator tree of one statement is pulled from a single
/// thread (BMO workers receive rows, not the context).
struct BatchExecStats {
  uint64_t batches = 0;
  uint64_t batch_rows = 0;

  void Record(size_t rows) {
    ++batches;
    batch_rows += rows;
  }
};

/// Hot loops poll the context once per this many iterations. The stride
/// keeps the steady_clock read off the per-row path; with dominance tests
/// in the tens-of-nanoseconds range this bounds overshoot well under a
/// millisecond.
inline constexpr size_t kInterruptStride = 256;

class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Arms a deadline `timeout_ms` from now. 0 disarms.
  void set_deadline_ms(uint64_t timeout_ms) {
    has_deadline_ = timeout_ms != 0;
    if (has_deadline_) {
      deadline_ = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }
  }

  /// Requests cooperative cancellation; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Per-statement budget, charged by this statement's buffers. May be null.
  void set_statement_budget(MemoryBudget* b) { statement_budget_ = b; }
  MemoryBudget* statement_budget() const { return statement_budget_; }
  /// Arms the context's own per-statement budget with `limit_bytes` and
  /// installs it as statement_budget(). 0 keeps usage tracked but unlimited.
  void ArmStatementBudget(uint64_t limit_bytes) {
    owned_statement_budget_.set_limit(limit_bytes);
    statement_budget_ = &owned_statement_budget_;
  }
  /// Engine-wide budget shared across sessions. May be null.
  void set_engine_budget(MemoryBudget* b) { engine_budget_ = b; }
  MemoryBudget* engine_budget() const { return engine_budget_; }

  /// Called (with the refused byte count) when an engine-budget charge
  /// fails, before the charge is retried once. The engine installs a relief
  /// that sheds cold cache entries and runs a pin-aware GC sweep, so queries
  /// only see kResourceExhausted after reclaimable memory is exhausted too.
  void set_pressure_relief(std::function<void(uint64_t)> relief) {
    pressure_relief_ = std::move(relief);
  }

  /// Charges `bytes` against the statement budget then the engine budget,
  /// accumulating into the caller's RAII holders (one per budget — a holder
  /// refuses to mix budgets). A refused statement charge fails immediately;
  /// a refused engine charge triggers the pressure relief and one retry.
  /// Failure latches kResourceExhausted so the operator tree unwinds with
  /// the statement's final status.
  Status ChargeMemory(uint64_t bytes, ScopedMemoryCharge* statement_charge,
                      ScopedMemoryCharge* engine_charge) {
    if (statement_budget_ != nullptr &&
        !statement_charge->Charge(statement_budget_, bytes)) {
      return Latch(Status::ResourceExhausted(
          "statement memory limit exceeded (" +
          std::to_string(statement_budget_->limit()) + " bytes)"));
    }
    if (engine_budget_ != nullptr &&
        !engine_charge->Charge(engine_budget_, bytes)) {
      if (pressure_relief_) pressure_relief_(bytes);
      if (!engine_charge->Charge(engine_budget_, bytes)) {
        return Latch(Status::ResourceExhausted(
            "engine memory limit exceeded (" +
            std::to_string(engine_budget_->limit()) + " bytes)"));
      }
    }
    return Status::OK();
  }

  /// Polls cancellation and the deadline. The first failure latches: every
  /// later call (from any operator, any thread) returns the same status, so
  /// a timeout observed deep in a BMO worker is the status the client sees.
  Status CheckInterrupt() {
    if (interrupted_.load(std::memory_order_acquire)) return LatchedStatus();
    if (cancelled_.load(std::memory_order_acquire)) {
      return Latch(Status::Cancelled("statement cancelled by client"));
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Latch(Status::Timeout("statement deadline exceeded"));
    }
    return Status::OK();
  }

  /// Latches an externally-detected failure (e.g. a refused memory charge)
  /// so the rest of the tree unwinds with one consistent status. First
  /// failure wins.
  Status Latch(Status status) {
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!interrupted_.load(std::memory_order_relaxed)) {
        latched_ = std::move(status);
        interrupted_.store(true, std::memory_order_release);
      }
    }
    return LatchedStatus();
  }

  bool interrupted() const {
    return interrupted_.load(std::memory_order_acquire);
  }

  /// The latched failure; OK when never interrupted.
  Status LatchedStatus() const {
    if (!interrupted_.load(std::memory_order_acquire)) return Status::OK();
    std::lock_guard<std::mutex> g(mu_);
    return latched_;
  }

  BatchExecStats& batch_stats() { return batch_stats_; }
  const BatchExecStats& batch_stats() const { return batch_stats_; }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> interrupted_{false};
  mutable std::mutex mu_;
  Status latched_;  // guarded by mu_ until interrupted_ is set
  MemoryBudget owned_statement_budget_;
  MemoryBudget* statement_budget_ = nullptr;
  MemoryBudget* engine_budget_ = nullptr;
  std::function<void(uint64_t)> pressure_relief_;
  BatchExecStats batch_stats_;
};

namespace query_context_internal {
inline QueryContext*& TlsCurrent() {
  thread_local QueryContext* ctx = nullptr;
  return ctx;
}
}  // namespace query_context_internal

/// Establishes `ctx` (may be null) as this thread's current query context
/// for the scope's lifetime (save/restore, so scopes nest).
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* ctx)
      : saved_(query_context_internal::TlsCurrent()) {
    query_context_internal::TlsCurrent() = ctx;
  }
  ~ScopedQueryContext() { query_context_internal::TlsCurrent() = saved_; }
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* saved_;
};

/// The current statement's context, or null outside any scope (direct
/// Database/Executor use, tests).
inline QueryContext* CurrentQueryContext() {
  return query_context_internal::TlsCurrent();
}

/// Stride-counted interrupt helper for hot loops:
///   size_t tick = 0;
///   for (...) { PSQL_RETURN_IF_ERROR(PollInterrupt(&tick)); ... }
/// Cheap when no context is active (one thread-local read + counter).
inline Status PollInterrupt(size_t* tick) {
  if (++*tick % kInterruptStride != 0) return Status::OK();
  QueryContext* ctx = CurrentQueryContext();
  if (ctx == nullptr) return Status::OK();
  return ctx->CheckInterrupt();
}

/// Charges an operator's growing buffer (sort input, join build side,
/// DISTINCT seen-set, aggregate groups) against the current statement's
/// budgets in kChargeBatchBytes steps, keeping the atomics off the per-row
/// path. The reservation is held until Reset (operator Close). A no-op
/// outside any statement context.
class BufferCharge {
 public:
  /// Binds to the current statement context.
  BufferCharge() : ctx_(CurrentQueryContext()) {}

  /// Releases everything held and rebinds to the current statement context
  /// (operators call it in Open and Close).
  void Reset() {
    stmt_.Reset();
    engine_.Reset();
    pending_ = 0;
    ctx_ = CurrentQueryContext();
  }

  /// Accounts `bytes` more; charges once kChargeBatchBytes have piled up.
  Status Add(uint64_t bytes) {
    pending_ += bytes;
    return pending_ >= kChargeBatchBytes ? Flush() : Status::OK();
  }

  /// Charges whatever is still pending.
  Status Flush() {
    const uint64_t bytes = pending_;
    pending_ = 0;
    if (ctx_ == nullptr || bytes == 0) return Status::OK();
    return ctx_->ChargeMemory(bytes, &stmt_, &engine_);
  }

 private:
  QueryContext* ctx_;
  uint64_t pending_ = 0;
  ScopedMemoryCharge stmt_;
  ScopedMemoryCharge engine_;
};

}  // namespace prefsql
