// Status / Result error model, in the style of Arrow and RocksDB.
//
// Operational code paths in this library do not throw exceptions: every
// fallible operation returns a Status, or a Result<T> that carries either a
// value or a Status.  Programming errors (violated invariants) abort via
// SCREP_CHECK in logging.h.

#ifndef SCREP_COMMON_STATUS_H_
#define SCREP_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace screp {

/// Machine-readable category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kConflict,        ///< write-write conflict detected (certification failure)
  kAborted,         ///< transaction aborted (e.g. early certification)
  kOutOfRange,
  kNotSupported,
  kInternal,
  kIOError,
};

/// Returns a human-readable name for a StatusCode ("OK", "Conflict", ...).
const char* StatusCodeName(StatusCode code);

/// The outcome of a fallible operation: a code plus an optional message.
///
/// Statuses are cheap to copy in the OK case (no allocation) and carry a
/// heap-allocated message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a non-OK Status explaining its absence.
template <typename T>
class Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from a non-OK status: failure.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Pre-condition: ok().
  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return std::move(*value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

  /// Returns the contained value or `fallback` when failed.
  T value_or(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace screp

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define SCREP_RETURN_NOT_OK(expr)              \
  do {                                         \
    ::screp::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define SCREP_CONCAT_IMPL_(a, b) a##b
#define SCREP_CONCAT_(a, b) SCREP_CONCAT_IMPL_(a, b)

#define SCREP_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                                 \
  if (!result.ok()) return result.status();              \
  lhs = std::move(result).value()

/// Evaluates `rexpr` (a Result<T> expression), returns its status on failure,
/// otherwise moves the value into `lhs` (which may be a declaration).
#define SCREP_ASSIGN_OR_RETURN(lhs, rexpr) \
  SCREP_ASSIGN_OR_RETURN_IMPL_(SCREP_CONCAT_(_res_, __LINE__), lhs, rexpr)

#endif  // SCREP_COMMON_STATUS_H_
