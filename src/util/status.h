// Status and Result<T>: the library-wide error model.
//
// Public APIs in this library never throw; fallible operations return a
// Status (for "void" results) or a Result<T> (value-or-error), following the
// idiom used by Apache Arrow and RocksDB.

#pragma once

#include <string>
#include <utility>
#include <variant>

namespace prefsql {

/// Error category of a failed operation.
///
/// The numeric values are stable API: drivers sitting on top of the client
/// surface (Connection / PreparedStatement / Cursor) branch on the code, not
/// on the message text. The categories map as
///   parse      -> kParseError
///   bind       -> kBindError            (parameter arity/type/unbound)
///   catalog    -> kNotFound / kAlreadyExists
///   execution  -> kExecutionError / kInvalidArgument / kNotImplemented
///   governance -> kTimeout / kCancelled / kResourceExhausted
/// and kInternal is always a library bug.
enum class StatusCode {
  kOk = 0,
  /// Malformed SQL / Preference SQL input.
  kParseError = 1,
  /// Well-formed input that violates semantic rules (unknown column, type
  /// mismatch, ambiguous quality function, ...).
  kInvalidArgument = 2,
  /// Referenced catalog object does not exist.
  kNotFound = 3,
  /// Catalog object already exists.
  kAlreadyExists = 4,
  /// The operation is valid but not supported by this component (e.g. a
  /// non-weak-order EXPLICIT preference in the SQL rewriter).
  kNotImplemented = 5,
  /// Internal invariant violation; indicates a bug in the library.
  kInternal = 6,
  /// Parameter-binding failure on a prepared statement: index/name out of
  /// range, value violates the slot's type constraint, or execution was
  /// attempted with unbound parameters.
  kBindError = 7,
  /// Runtime failure of an otherwise valid statement (cursor used after
  /// Close, statement aborted mid-stream, ...).
  kExecutionError = 8,
  /// The statement exceeded its deadline (`SET statement_timeout_ms`) and
  /// was abandoned cooperatively. A DML statement stamps only after it has
  /// computed every change, so an abandoned one changes nothing; no partial
  /// cache entries are published.
  kTimeout = 9,
  /// The statement was cancelled by the client (Session::CancelCurrent).
  /// Same cleanup guarantees as kTimeout.
  kCancelled = 10,
  /// A per-statement or engine-wide memory budget was exhausted and the
  /// graceful-degradation path (cache shedding, GC escalation) could not
  /// recover enough headroom.
  kResourceExhausted = 11,
};

/// Human-readable name of a StatusCode ("Parse error", ...).
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation that produces no value.
///
/// A default-constructed Status is OK. Failed statuses carry a code and a
/// message. Statuses are cheap to copy and move.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Returns an OK status.
  static Status OK() { return Status(); }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsNotImplemented() const {
    return code_ == StatusCode::kNotImplemented;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsBindError() const { return code_ == StatusCode::kBindError; }
  bool IsExecutionError() const {
    return code_ == StatusCode::kExecutionError;
  }
  bool IsTimeout() const { return code_ == StatusCode::kTimeout; }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "<code name>: <message>" for failures, "OK" otherwise.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Value-or-error wrapper: holds either a T or a non-OK Status.
///
/// Access the value only after checking ok(); accessing the value of a failed
/// Result aborts. Use PSQL_ASSIGN_OR_RETURN to chain fallible computations.
template <typename T>
class Result {
 public:
  /// Constructs a successful Result (implicit so `return value;` works).
  Result(T value) : payload_(std::move(value)) {}
  /// Constructs a failed Result from a non-OK status (implicit so
  /// `return Status::...;` works). Aborts if the status is OK.
  Result(Status status) : payload_(std::move(status)) {
    if (std::get<Status>(payload_).ok()) {
      Abort("Result constructed from OK status");
    }
  }

  /// True iff a value is present.
  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// The status: OK when a value is present.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  /// Borrows the value; requires ok().
  const T& value() const& {
    CheckOk();
    return std::get<T>(payload_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(payload_);
  }
  /// Moves the value out; requires ok().
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) Abort(std::get<Status>(payload_).ToString());
  }
  [[noreturn]] static void Abort(const std::string& msg);

  std::variant<T, Status> payload_;
};

namespace internal {
[[noreturn]] void AbortWithMessage(const std::string& msg);
}  // namespace internal

template <typename T>
void Result<T>::Abort(const std::string& msg) {
  internal::AbortWithMessage("Result::value() on failed Result: " + msg);
}

// Internal helpers for the macros below.
#define PSQL_CONCAT_IMPL(a, b) a##b
#define PSQL_CONCAT(a, b) PSQL_CONCAT_IMPL(a, b)

/// Propagates a non-OK Status to the caller.
#define PSQL_RETURN_IF_ERROR(expr)                 \
  do {                                             \
    ::prefsql::Status psql_status_ = (expr);       \
    if (!psql_status_.ok()) return psql_status_;   \
  } while (false)

/// Evaluates a Result<T> expression; assigns the value to `lhs` on success,
/// propagates the Status on failure. `lhs` may declare a new variable.
#define PSQL_ASSIGN_OR_RETURN(lhs, rexpr)                         \
  PSQL_ASSIGN_OR_RETURN_IMPL(PSQL_CONCAT(psql_result_, __LINE__), \
                             lhs, rexpr)

#define PSQL_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                               \
  if (!result.ok()) return result.status();            \
  lhs = std::move(result).value();

}  // namespace prefsql
