#ifndef THEMIS_UTIL_CANCEL_H_
#define THEMIS_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/status.h"

namespace themis {
namespace util {

/// Deadline sentinel: "no deadline", in steady-clock nanoseconds.
inline constexpr int64_t kNoDeadlineNs = std::numeric_limits<int64_t>::max();

/// The steady clock as an int64 nanosecond count — the representation
/// CancelToken's deadline and the trace spans share.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cooperative cancellation handle for a single request. The serving layer
/// constructs one per admitted request (optionally with an absolute
/// deadline); the executor polls `Check()` once per shard/chunk in its hot
/// loops and unwinds with kCancelled / kDeadlineExceeded when it fires.
///
/// Thread-safety: `Cancel()` and `Check()` may race freely (the flag is a
/// single atomic). The deadline is immutable after construction, so readers
/// never synchronize on it.
class CancelToken {
 public:
  /// A token with no deadline; fires only via Cancel().
  CancelToken() = default;

  /// A token that also expires `deadline_ms` milliseconds from now.
  /// `deadline_ms == 0` means no deadline.
  explicit CancelToken(uint64_t deadline_ms) {
    if (deadline_ms > 0) {
      deadline_ns_ = SteadyNowNs() +
                     static_cast<int64_t>(deadline_ms) * 1'000'000;
    }
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Marks the token cancelled (e.g. the client disconnected). Idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// OK while the request should keep running. Explicit cancellation wins
  /// over deadline expiry so a disconnected client reports kCancelled even
  /// when its deadline has also lapsed.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled");
    }
    if (deadline_ns_ != kNoDeadlineNs && SteadyNowNs() >= deadline_ns_) {
      return Status::DeadlineExceeded("request deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  int64_t deadline_ns_ = kNoDeadlineNs;
};

/// Null-safe poll: the executor threads a `const CancelToken*` that is
/// nullptr for in-process callers with no deadline.
inline Status CheckCancel(const CancelToken* token) {
  return token == nullptr ? Status::OK() : token->Check();
}

}  // namespace util
}  // namespace themis

#endif  // THEMIS_UTIL_CANCEL_H_
