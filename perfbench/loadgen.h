#ifndef THEMIS_PERFBENCH_LOADGEN_H_
#define THEMIS_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset.h"
#include "util/status.h"

namespace themis::perfbench {

/// What became of one scheduled request.
struct Outcome {
  enum class Kind : uint8_t { kUnsent, kOk, kError, kRejected };
  /// Steady-clock nanoseconds: when the request was due, when its bytes
  /// went to the socket, and when its response line was read.
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  /// FNV-1a hash and length of the response line (newline excluded).
  uint64_t hash = 0;
  uint32_t length = 0;
  /// Index of the request text.
  uint32_t text = 0;
  Kind kind = Kind::kUnsent;
};

/// One fixed-rate open-loop segment.
struct Segment {
  double rate = 0;
  std::vector<Outcome> outcomes;  // in schedule order
  /// The generator stopped sending because too many requests were
  /// outstanding: the server fell behind the schedule.
  bool aborted = false;
};

/// FNV-1a 64 over `bytes` — how served lines are fingerprinted while the
/// clock runs and compared with in-process answers afterwards.
uint64_t HashBytes(const char* data, size_t size);
inline uint64_t HashBytes(const std::string& bytes) {
  return HashBytes(bytes.data(), bytes.size());
}

/// Open-loop load generator over loopback TCP connections. Request i of
/// a segment is due at start + i / rate and goes out on connection
/// i mod C as soon as it is due, whether or not earlier requests have
/// been answered (the server allows pipelining and answers in order per
/// connection). Each connection is driven by its own thread, so the
/// generator uses exactly C threads and C connections. Latency is
/// measured from the due time, never from the send time, so a stall
/// charges every request scheduled behind it (no coordinated omission).
class LoadGenerator {
 public:
  /// Connects `connections` sockets to the loopback server on `port`.
  static Result<LoadGenerator> Connect(uint16_t port, size_t connections);

  LoadGenerator(LoadGenerator&& other) noexcept;
  LoadGenerator& operator=(LoadGenerator&&) = delete;
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;
  ~LoadGenerator();

  /// Sends texts[order[i]] at the schedule above and returns once every
  /// sent request is answered. A connection stops sending (and the
  /// segment is marked aborted) when `max_outstanding` of its requests
  /// are unanswered. With `rate` <= 0 the segment runs closed-loop
  /// instead: every request is due at the start, and each connection
  /// keeps `max_outstanding` requests in flight, sending the next one
  /// as soon as an answer frees a slot. `slots` may pass in storage for the outcomes, so the
  /// caller decides when that memory is allocated. IoError when a
  /// connection breaks or no answer arrives for `drain_timeout_s` after
  /// the last send.
  Result<Segment> Run(const std::vector<QueryText>& texts,
                      const std::vector<uint32_t>& order, double rate,
                      size_t max_outstanding, std::vector<Outcome> slots = {},
                      double drain_timeout_s = 60) const;

 private:
  explicit LoadGenerator(std::vector<int> fds) : fds_(std::move(fds)) {}

  std::vector<int> fds_;
};

/// Latency summary of one segment's answered requests, in milliseconds
/// from the due time.
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0;
  /// The highest of p99 / p95 / p90 / p50 that has at least ten samples
  /// beyond it (p99 given 1000 samples), and which one that is.
  double tail_ms = 0;
  double tail_percentile = 0;
  /// How late the generator sent: p99 and max of send - due.
  double late_p99_ms = 0;
  double late_max_ms = 0;
  /// Median latency of the last fifth of the schedule — a queue that
  /// keeps growing shows up here first.
  double final_fifth_p50_ms = 0;
};

LatencySummary Summarize(const std::vector<Outcome>& outcomes);

/// Splits `outcomes` (in schedule order) into `windows` equal slices and
/// reports the median over the slices of each slice's p50 and of each
/// slice's tail (the lateness and final-fifth figures cover the whole
/// segment), so one slice hit by a scheduling stall of a shared host
/// does not set the figure. `windows` = 1 is Summarize.
LatencySummary SummarizeWindows(const std::vector<Outcome>& outcomes,
                                size_t windows);

/// Value at quantile q in [0, 1] of `values` (sorted in place; nearest
/// rank).
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

}  // namespace themis::perfbench

#endif  // THEMIS_PERFBENCH_LOADGEN_H_
