#ifndef GRALMATCH_COMMON_STATUS_H_
#define GRALMATCH_COMMON_STATUS_H_

/// \file status.h
/// Status / Result error handling in the Arrow/RocksDB idiom. Fallible
/// operations return a Status (or Result<T>) instead of throwing across
/// module boundaries.

#include <optional>
#include <string>
#include <utility>

namespace gralmatch {

/// Error categories used across the library. The values are wire codes
/// (net/wire.h carries them in response frames), so every value stays even
/// where no factory below produces it.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIoError,
  kInternal,
  kNotImplemented,
};

/// \brief Outcome of a fallible operation.
///
/// A default-constructed Status is OK. Non-OK statuses carry a code and a
/// human-readable message. Statuses are cheap to copy (small string).
///
/// [[nodiscard]]: silently dropping a returned Status discards an error.
/// Callers must check it (or, where discarding is genuinely correct — e.g.
/// best-effort cleanup on an already-failing path — cast to void with a
/// comment saying why).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  /// IOError carrying the calling thread's current `errno` as a
  /// ": <strerror>" suffix. Call it *immediately* after the failing
  /// syscall — any intervening call may clobber errno.
  static Status IOErrorFromErrno(std::string msg);
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Render as "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

/// \brief Either a value of type T or a non-OK Status.
///
/// Mirrors arrow::Result. Access to the value when holding an error aborts
/// in debug builds; always check ok() first (or use ValueOrDie in tests).
///
/// [[nodiscard]] for the same reason as Status: an unexamined Result is a
/// dropped error (and a dropped value).
template <typename T>
class [[nodiscard]] Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& ValueOrDie() const& { return value_.value(); }
  T& ValueOrDie() & { return value_.value(); }
  T&& ValueOrDie() && { return std::move(value_).value(); }

  const T& operator*() const& { return value_.value(); }
  T& operator*() & { return value_.value(); }
  const T* operator->() const { return &value_.value(); }
  T* operator->() { return &value_.value(); }

  /// Move the value out, leaving the Result in an unspecified state.
  T MoveValueUnsafe() { return std::move(value_).value(); }

 private:
  Status status_;          // OK iff value_ holds a value
  std::optional<T> value_;
};

/// Propagate a non-OK Status from an expression.
#define GRALMATCH_RETURN_NOT_OK(expr)           \
  do {                                          \
    ::gralmatch::Status _st = (expr);           \
    if (!_st.ok()) return _st;                  \
  } while (0)

#define GRALMATCH_STATUS_CONCAT_IMPL(a, b) a##b
#define GRALMATCH_STATUS_CONCAT(a, b) GRALMATCH_STATUS_CONCAT_IMPL(a, b)

#define GRALMATCH_ASSIGN_OR_RETURN_IMPL(result, lhs, expr) \
  auto result = (expr);                                    \
  if (!result.ok()) return result.status();                \
  lhs = result.MoveValueUnsafe();

/// Assign the value of a Result expression or propagate its error Status.
/// The temporary's name embeds the line number (with proper two-step
/// expansion), so several uses can share one scope.
#define GRALMATCH_ASSIGN_OR_RETURN(lhs, expr) \
  GRALMATCH_ASSIGN_OR_RETURN_IMPL(            \
      GRALMATCH_STATUS_CONCAT(_gralmatch_result_, __LINE__), lhs, expr)

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_STATUS_H_
