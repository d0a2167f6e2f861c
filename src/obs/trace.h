#ifndef THEMIS_OBS_TRACE_H_
#define THEMIS_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "util/cancel.h"

namespace themis::obs {

/// The serving stages a request's wall-clock decomposes into. Stage spans
/// may nest or repeat (a batch request records one kExecute span per
/// member; the executor records one kExecutorScan span per plan), so each
/// stage keeps a count alongside its summed duration.
enum class Stage {
  kParse = 0,            // wire line -> WireRequest
  kAdmission,            // parse end -> admission decision
  kQueueWait,            // admitted -> pool task starts running
  kPlanLookup,           // SQL -> route + plan (plan cache); memo probe
  kExecute,              // uncached plan execution (evaluator level)
  kExecutorScan,         // sql::Executor shard-loop portion of kExecute
  kSerialize,            // QueryResult -> response line
  kCount,
};

constexpr size_t kNumStages = static_cast<size_t>(Stage::kCount);

/// Stable label used in METRICS ("stage" label value) and slow-log JSON.
const char* StageName(Stage stage);

/// Per-stage aggregate of one request's trace, with begin/end relative to
/// the trace's start so tests can assert span ordering.
struct StageSpan {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t first_begin_rel_ns = -1;  // -1 when the stage never ran
  int64_t last_end_rel_ns = -1;
};

/// One slow-query log entry: the request plus its per-stage breakdown.
struct SlowQueryEntry {
  std::string sql;
  std::string relation;
  std::string fingerprint;
  std::string status;  // "OK" or the error code name
  int64_t total_ns = 0;
  std::array<StageSpan, kNumStages> stages{};
};

/// Per-request trace record, carried alongside util::CancelToken through
/// the serving stack. Null pointer == tracing off for this request; every
/// recording site is a single null check in that case, which is what makes
/// the sampled-off overhead unmeasurable.
///
/// Thread-safety: RecordSpan may be called concurrently (batch members and
/// executor shards run on pool threads), so the per-stage accumulators are
/// relaxed atomics. SetPlanInfo/SetSql/set_status are single-writer (the
/// thread driving the request at that point in its lifecycle).
class TraceContext {
 public:
  TraceContext() : start_ns_(util::SteadyNowNs()) {}
  /// Anchors the trace at an earlier clock reading — the serving layer
  /// stamps the request line's arrival before it knows whether the
  /// request will be traced, then back-dates the trace to that stamp so
  /// relative span offsets cover the whole request.
  explicit TraceContext(int64_t start_ns) : start_ns_(start_ns) {}
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  int64_t start_ns() const { return start_ns_; }

  /// Records one [begin_ns, end_ns] monotonic-clock span for a stage.
  void RecordSpan(Stage stage, int64_t begin_ns, int64_t end_ns);

  /// Called once the plan is known (on whichever pool thread resolved it).
  void SetPlanInfo(const std::string& relation, const std::string& fingerprint);

  void SetSql(std::string sql);
  void SetStatus(std::string status);

  /// Freezes this trace into a slow-log entry with `total_ns` end-to-end.
  SlowQueryEntry Finish(int64_t total_ns) const;

  /// Summed duration of a stage so far (tests and histogram flush).
  int64_t StageTotalNs(Stage stage) const;
  uint64_t StageCount(Stage stage) const;

 private:
  struct StageAccum {
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> total_ns{0};
    std::atomic<int64_t> first_begin_ns{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> last_end_ns{std::numeric_limits<int64_t>::min()};
  };

  const int64_t start_ns_;
  std::array<StageAccum, kNumStages> stages_{};
  mutable std::mutex info_mu_;  // guards the strings below against Finish()
  std::string sql_;
  std::string relation_;
  std::string fingerprint_;
  std::string status_ = "OK";

  friend class TraceContextTestPeer;
};

/// RAII span: stamps the monotonic clock on entry and records on exit.
/// A null trace costs one pointer check and no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* trace, Stage stage)
      : trace_(trace),
        stage_(stage),
        begin_ns_(trace != nullptr ? util::SteadyNowNs() : 0) {}

  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->RecordSpan(stage_, begin_ns_, util::SteadyNowNs());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext* trace_;
  Stage stage_;
  int64_t begin_ns_;
};

/// Bounded in-memory log of the K worst (slowest) traces seen so far.
/// Offer() keeps the top-K by total_ns under a mutex — called once per
/// *traced* request (sampled or over-threshold), so the lock is far off
/// the per-request fast path.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  /// Admits the entry if the log has room or the entry is slower than the
  /// current fastest resident. Returns true if admitted.
  bool Offer(SlowQueryEntry entry);

  /// Entries sorted slowest-first.
  std::vector<SlowQueryEntry> Snapshot() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SlowQueryEntry> entries_;  // unordered; sorted on Snapshot
};

}  // namespace themis::obs

#endif  // THEMIS_OBS_TRACE_H_
