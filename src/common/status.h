// Lightweight Status / StatusOr error model for the public boundaries.
//
// The library historically validated inputs with debug-only asserts, which
// compile away in Release and leave silent UB (out-of-range page reads) or
// undefined solver behavior (NaN coordinates poison every distance
// comparison). `Status` makes those contracts always-on and recoverable:
//
//   * Boundary functions that can reject their input return `Status`
//     (or `StatusOr<T>` when they also produce a value).
//   * `Status` is cheap: the OK path carries no allocation (empty message,
//     one enum byte); error construction allocates only the message.
//   * There are no exceptions anywhere in the library; `StatusOr::value()`
//     on an error aborts with the message — use `ok()` / `status()` when
//     the error is expected.
//   * Both types are [[nodiscard]]: a dropped result is a compiler warning,
//     so no rejection goes unseen.
//
// Error taxonomy (mirrors the canonical codes; see src/runtime/README.md
// "Failure model" for which layers emit which):
//
//   kInvalidArgument    caller passed garbage (NaN/inf point, capacity <= 0)
//   kOutOfRange         index past a container boundary (PageId >= page_count)
//   kFailedPrecondition call sequencing violated a documented contract
//   kUnavailable        transient I/O failure -- retryable (fault injection,
//                       and the slot a real storage backend would use)
//   kDataLoss           corruption detected (per-page CRC32 mismatch);
//                       retryable when the backing store is intact
//   kDeadlineExceeded   cooperative deadline breached (Resolve SLO)
#ifndef CCA_COMMON_STATUS_H_
#define CCA_COMMON_STATUS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace cca {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kUnavailable,
  kDataLoss,
  kDeadlineExceeded,
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  // Explicit "I checked / I don't care" marker for best-effort call sites
  // (e.g. cache prewarming); keeps them grep-able.
  void IgnoreError() const {}

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(StatusCode::kOutOfRange, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status UnavailableError(std::string msg) {
  return Status(StatusCode::kUnavailable, std::move(msg));
}
inline Status DataLossError(std::string msg) {
  return Status(StatusCode::kDataLoss, std::move(msg));
}
inline Status DeadlineExceededError(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}

namespace internal_status {
[[noreturn]] inline void DieOnBadAccess(const Status& status) {
  std::fprintf(stderr, "StatusOr::value() on error status: %s\n",
               status.ToString().c_str());
  std::abort();
}
}  // namespace internal_status

// A value or an error, never both. The error path is for *expected*
// rejections (bad input, deadline); accessing `value()` on an error is a
// caller bug and aborts loudly rather than returning garbage.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit from a value (the common return path).
  StatusOr(T value) : status_(), value_(std::move(value)), has_value_(true) {}
  // Implicit from a non-OK status. Constructing from OK without a value
  // would create a "success with no payload" -- downgraded to an error so
  // it can never be dereferenced.
  StatusOr(Status status) : status_(std::move(status)), has_value_(false) {
    if (status_.ok()) {
      status_ = Status(StatusCode::kFailedPrecondition,
                       "StatusOr constructed from OK status without a value");
    }
  }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!has_value_) internal_status::DieOnBadAccess(status_);
    return value_;
  }
  T& value() & {
    if (!has_value_) internal_status::DieOnBadAccess(status_);
    return value_;
  }
  T&& value() && {
    if (!has_value_) internal_status::DieOnBadAccess(status_);
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  T value_{};
  bool has_value_;
};

// Early-return helper for Status-returning functions.
#define CCA_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::cca::Status cca_status_macro_tmp = (expr);   \
    if (!cca_status_macro_tmp.ok()) return cca_status_macro_tmp; \
  } while (0)

}  // namespace cca

#endif  // CCA_COMMON_STATUS_H_
