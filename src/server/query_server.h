#ifndef THEMIS_SERVER_QUERY_SERVER_H_
#define THEMIS_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/response_cache.h"
#include "server/wire.h"
#include "util/cancel.h"
#include "util/status.h"

namespace themis::server {

/// The host capability snapshot the STATS verb reports: probed cache
/// topology, active SIMD backend (per THEMIS_SIMD at call time), and the
/// derived per-shard working-set target. Also used by the CLI's startup
/// log so the two always agree.
HostStats HostStatsNow();

/// The async serving front-end: a TCP query server that turns a built
/// core::Catalog into a network service.
///
/// Sessions are multiplexed over a small fixed set of epoll event-loop
/// threads (Options::io_threads) instead of a reader/writer thread pair
/// per connection: each I/O thread owns its sockets edge-triggered,
/// parses line-delimited requests out of a per-session input buffer, and
/// submits each admitted request as a whole plan task via
/// util::ThreadPool::Submit on the catalog's shared pool — so distinct
/// clients' queries execute concurrently (and nest freely with the
/// per-plan K-world and sharded-scan fan-outs — one pool, no
/// oversubscription) while thousands of idle connections cost no threads
/// at all. Completed responses are posted back to the owning I/O thread
/// through an eventfd wakeup and flushed from a per-session FIFO with
/// partial-write continuation (EPOLLOUT is armed only while a flush is
/// blocked), so one request line yields exactly one response line, in
/// request order per connection — pipelining is allowed and responses
/// never reorder.
///
/// Deadlines and cancellation: a request's `deadline_ms` wire field (or,
/// absent that, its session's `set` default) starts its budget at
/// admission; the serving layer threads a util::CancelToken through
/// HybridEvaluator::ExecutePlan into the executor shard loops, so an
/// expired request unwinds cooperatively and answers kDeadlineExceeded
/// instead of finishing the plan. A client that disconnects mid-query fires the
/// same token and the abandoned work unwinds as kCancelled; cancelled
/// queries never return partial aggregates — a token that does not fire
/// leaves the answer bitwise identical to the in-process Query().
///
/// One route, one plan per request: a pool task resolves its query once
/// (Catalog::Resolve), keys the response byte cache by that plan's
/// fingerprint, and executes that plan.
///
/// Admission control: at most ThemisOptions::max_inflight requests may be
/// queued or executing on the pool across all connections; beyond that,
/// requests are rejected immediately with ResourceExhausted instead of
/// queueing without bound. The STATS verb bypasses admission (it answers inline
/// from counters on the I/O thread) so overload stays observable while
/// it is happening.
///
/// Shutdown is graceful: Stop() stops accepting and reading, lets every
/// already-admitted request finish on the pool, flushes its response to
/// every still-connected peer, and only then closes the sessions (a peer
/// that stops reading forfeits its responses after a bounded flush
/// grace).
///
/// The catalog must outlive the server, and catalog mutations
/// (Insert*/Build*/DropRelation) must not race a running server — the
/// same contract as Catalog's concurrent const use.
class QueryServer {
 public:
  /// Per-server settings. The catalog-wide serving bounds —
  /// ThemisOptions::max_inflight and ThemisOptions::response_cache_bytes —
  /// are read from the catalog and have no copy here.
  struct Options {
    /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
    /// read the chosen one from port() after Start().
    uint16_t port = 0;

    /// Epoll event-loop threads; 0 resolves to
    /// max(1, min(4, hardware_concurrency / 4)) — the I/O side needs few
    /// threads even at thousands of connections, and leaving the rest of
    /// the machine to the executor pool is the point.
    size_t io_threads = 0;

    /// Wire-level response byte cache: the fully encoded one-line payload
    /// of memoizable OK answers, keyed by (relation, plan fingerprint,
    /// mode), serves repeats straight from the cached bytes on the I/O
    /// thread — zero JSON encoding, zero pool handoff. Invalidated
    /// alongside the result memo by Insert*/Build/DropRelation; served
    /// bytes are always bitwise identical to a fresh encode. Bounded by
    /// ThemisOptions::response_cache_bytes.
    bool enable_response_cache = true;

    /// Request-trace sampling: trace every Nth admitted request (per-stage
    /// span timings feeding the METRICS stage histograms and the
    /// slow-query log). 0 disables sampling; the always-on end-to-end
    /// request-latency histogram is unaffected. Untraced requests pay a
    /// single null-pointer check per recording site.
    size_t trace_sample_n = 0;

    /// Capacity K of the bounded slow-query log: the K worst sampled
    /// traces by end-to-end latency, surfaced via STATS. 0 disables it.
    size_t slow_query_log_k = 32;

    /// Test-only: runs inside every admitted pool task before the query
    /// executes. Lets tests hold slots open deterministically (admission
    /// control, drain-on-shutdown, deadline expiry) without timing races.
    std::function<void()> request_hook;
  };

  explicit QueryServer(const core::Catalog* catalog);
  QueryServer(const core::Catalog* catalog, Options options);
  ~QueryServer();  // Stop()

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the I/O threads. IoError when the socket
  /// cannot be created or bound; FailedPrecondition when already started.
  /// Ignores SIGPIPE process-wide (every write also passes MSG_NOSIGNAL;
  /// the ignore covers any other fd the process writes to a dead peer).
  Status Start();

  /// Graceful shutdown: stop accepting, stop reading, drain in-flight
  /// requests (their responses are still flushed to connected peers),
  /// join every I/O thread, close every socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the chosen one when Options::port was 0); 0 before
  /// Start().
  uint16_t port() const { return port_; }

  /// The resolved I/O thread count; 0 before Start().
  size_t io_threads() const { return num_io_threads_; }

  /// Live server counters (the server half of the STATS verb).
  ServerCounters counters() const;

  /// The server-owned latency histograms and slow-query log — how the
  /// serving bench reads the server-side percentiles in-process.
  const obs::ServingMetrics& metrics() const { return *metrics_; }

  /// Renders the full Prometheus text exposition (the METRICS verb's
  /// payload): server counters, request/stage latency histograms, and the
  /// per-relation cache counters.
  std::string MetricsText() const;

 private:
  struct PendingResponse;  // one FIFO slot: cancel token + response payload
  struct Session;          // one connection, owned by one I/O thread
  struct IoThread;         // epoll fd + wakeup + mailbox + sessions
  struct CacheIntent;      // one miss path's response-cache coordinates

  void IoLoop(size_t index);
  /// Accepts until EAGAIN (listen fd is edge-triggered on thread 0) and
  /// hands each socket to an I/O thread round-robin.
  void AcceptReady(IoThread& io);
  /// Registers one accepted socket with `io` as a fresh session.
  void AdoptSocket(IoThread& io, int fd);
  /// Adopts mailbox sockets, flushes sessions with newly-completed
  /// responses, and observes the shutdown flag.
  void DrainMailbox(IoThread& io, bool* shutdown);
  /// Edge-triggered read: drains the socket, parses complete lines,
  /// dispatches each; on EOF cancels the requests already in flight
  /// (the lines delivered with the close are still answered).
  void HandleReadable(IoThread& io, uint64_t session_id);
  /// Writes as much of the FIFO's completed prefix as the socket takes,
  /// arming EPOLLOUT for the remainder; closes the session when it is
  /// drained and the peer is gone (or the server is stopping).
  void FlushSession(IoThread& io, uint64_t session_id, bool stopping);
  void CloseSession(IoThread& io, uint64_t session_id);

  /// Admission control for one parsed line on the owning I/O thread:
  /// inline answers (stats, parse errors, overload rejections) enter the
  /// FIFO already resolved; each admitted request gets a cancel token and
  /// leaves at once as one pool task (Submit).
  void HandleLine(IoThread& io, Session& session, const std::string& line);

  /// Submits one admitted request to the pool; its response lands in
  /// `slot` and its session is posted back to I/O thread `io_index`.
  void Submit(size_t io_index, uint64_t session_id, WireRequest request,
              std::shared_ptr<PendingResponse> slot);

  /// Executes one admitted request on the calling (pool) thread, leaving
  /// the response payload in `slot` (owned scratch bytes, or a shared
  /// response-cache handle). A kQuery resolves once through
  /// Catalog::Resolve — one route, one plan-cache probe — and its cache
  /// intent is built from that plan before it executes.
  void ExecuteRequest(const WireRequest& request, PendingResponse& slot,
                      obs::TraceContext* trace);

  /// Response-cache coordinates of one resolved kQuery, taken *before*
  /// execution (plan fingerprint + generation snapshot); not eligible
  /// when the cache is off or the plan has no fingerprint.
  CacheIntent MakeCacheIntent(const WireRequest& request,
                              const core::Catalog::ResolvedQuery& resolved);

  /// Always-on per-request accounting at completion time: records the
  /// end-to-end latency histogram, and for traced requests flushes the
  /// per-stage totals into the stage histograms and offers the trace to
  /// the slow-query log.
  void RecordRequestDone(PendingResponse& slot, int64_t end_ns);

  /// Per-request bookkeeping: bumps served_ok / served_error (+
  /// deadline/cancel tallies) and leaves the response payload in `slot` —
  /// cached bytes when a racing duplicate or a same-fingerprint text
  /// admitted them first (second-chance lookup), a fresh encode into the
  /// slot's recycled scratch buffer otherwise (admitted to the cache when
  /// `intent` is eligible and the relation's generation held).
  void FinalizeOutcome(const Result<sql::QueryResult>& result,
                       const CacheIntent& intent, PendingResponse& slot);

  /// Posts a completed request's session id back to its I/O thread.
  void PostCompletion(size_t io_index, uint64_t session_id);

  /// STATS verb: server counters + per-relation catalog stats, inline.
  std::string ExecuteStats();

  const core::Catalog* catalog_;
  Options options_;
  size_t max_inflight_ = 0;
  size_t num_io_threads_ = 0;
  /// Heap-held so the (deleted-copy) histograms don't constrain the class.
  std::unique_ptr<obs::ServingMetrics> metrics_;
  /// Wire-level response byte cache; null when disabled. Invalidated by
  /// the catalog mutation listener registered at Start().
  std::unique_ptr<ResponseCache> response_cache_;
  uint64_t mutation_listener_id_ = 0;
  /// Admitted query/batch requests, for the every-Nth sampling decision.
  std::atomic<uint64_t> request_seq_{0};

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  /// Serializes Start/Stop (the destructor races nothing, but tests may
  /// Stop() explicitly before destruction).
  std::mutex lifecycle_mu_;

  std::vector<std::unique_ptr<IoThread>> io_;
  std::atomic<uint64_t> next_session_id_{2};  // 0/1 tag listen/wake

  /// Pool tasks still referencing this server. Stop() may not return
  /// while any exist: each task decrements the count as its very last
  /// action, after posting its response to the mailbox.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t tasks_active_ = 0;

  /// Counter ordering policy (audited with the STATS/METRICS-vs-traffic
  /// race test): monotonic counters use relaxed increments — they carry
  /// no cross-thread data, and a scrape is a point-in-time sample, not a
  /// consistent cut. `inflight_` is the exception (acq_rel: its CAS is
  /// the admission gate), as is each slot's `done` flag (release/acquire:
  /// it publishes the response buffer and the histogram/served_* updates
  /// made before it, which is what makes the METRICS count identity
  /// exact once a client has its answer).
  std::atomic<size_t> accepted_connections_{0};
  std::atomic<size_t> open_sessions_{0};
  std::atomic<size_t> admitted_{0};
  std::atomic<size_t> served_ok_{0};
  std::atomic<size_t> served_error_{0};
  std::atomic<size_t> served_deadline_exceeded_{0};
  std::atomic<size_t> served_cancelled_{0};
  std::atomic<size_t> rejected_overload_{0};
  std::atomic<size_t> inflight_{0};
  /// Response payloads actually JSON-encoded (stays flat across
  /// byte-cache hits — the "zero EncodeResponse" proof counter).
  std::atomic<size_t> responses_encoded_{0};
};

}  // namespace themis::server

#endif  // THEMIS_SERVER_QUERY_SERVER_H_
