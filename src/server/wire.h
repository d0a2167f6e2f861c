#ifndef THEMIS_SERVER_WIRE_H_
#define THEMIS_SERVER_WIRE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/evaluator.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "util/status.h"

namespace themis::server {

/// Minimal JSON document: the wire protocol is line-delimited JSON and the
/// library must not grow a third-party dependency, so this is a small
/// self-contained value type with a strict recursive-descent parser and a
/// deterministic dumper (object keys serialize in sorted order; numbers
/// print with 17 significant digits so doubles round-trip bitwise).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  /// Parses exactly one JSON document (trailing garbage is an error).
  /// ParseError with a character offset on malformed input.
  static Result<JsonValue> Parse(const std::string& text);

  /// Serializes on one line (no newline appended) — ready for the
  /// line-delimited wire.
  std::string Dump() const;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::map<std::string, JsonValue>& members() const { return members_; }

  /// Array building.
  void Append(JsonValue value);
  /// Object building (overwrites an existing key).
  void Set(const std::string& key, JsonValue value);

  /// Object lookup; null when absent or when this is not an object.
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Wire names of core::AnswerMode: "hybrid" / "sample" / "bn".
const char* AnswerModeWireName(core::AnswerMode mode);
Result<core::AnswerMode> AnswerModeFromWireName(const std::string& name);

/// Upper bound on a request's `deadline_ms`: one year. Larger values
/// clamp here instead of failing — a client asking for an absurd budget
/// means "effectively no deadline", and the clamp keeps the absolute
/// deadline arithmetic far from time_point overflow.
inline constexpr uint64_t kMaxDeadlineMs = 365ull * 24 * 60 * 60 * 1000;

/// One parsed client request. The wire form is a single-line JSON object:
///
///   {"sql": "SELECT ...", "relation": "flights", "mode": "hybrid"}
///   {"batch": ["SELECT ...", "SELECT ..."], "mode": "sample"}
///   {"verb": "stats"}
///   {"verb": "metrics"}
///   {"verb": "set", "default_mode": "sample", "default_deadline_ms": 100}
///
/// `relation` (optional) bypasses FROM-routing via Catalog::QueryOn —
/// required when relations share a SQL table name. `mode` defaults to
/// hybrid. `verb` defaults to "query"; "stats" and "metrics" take no
/// other fields ("metrics" answers the Prometheus text exposition).
/// `deadline_ms` (optional, query/batch) is the request's execution
/// budget in milliseconds from admission; 0 or absent defers to the
/// session default (see "set"), and without one the request runs
/// unbounded.
///
/// "set" installs per-session defaults, answered inline with
/// {"status":"OK"}: `default_mode` is the AnswerMode applied to this
/// session's later query/batch requests that carry no explicit `mode`,
/// and `default_deadline_ms` likewise for `deadline_ms` (its 0 clears
/// the session default: no deadline). Either field may be
/// omitted; the other is left unchanged.
struct WireRequest {
  enum class Verb { kQuery, kBatch, kStats, kMetrics, kSet };
  Verb verb = Verb::kQuery;
  std::string sql;                 // kQuery
  std::vector<std::string> batch;  // kBatch
  std::string relation;            // kQuery only; empty = FROM-routed
  core::AnswerMode mode = core::AnswerMode::kHybrid;
  /// 0 = no per-request deadline (the session default applies, if any).
  uint64_t deadline_ms = 0;
  /// Whether the wire line carried the field explicitly ("mode" /
  /// "deadline_ms"; for kSet, "default_mode" / "default_deadline_ms" —
  /// which ride in `mode` / `deadline_ms` above). An absent field falls
  /// back to the session default.
  bool has_mode = false;
  bool has_deadline = false;
};

/// Parses one request line. InvalidArgument on malformed JSON, an unknown
/// verb/mode, a non-string sql, a request with both `sql` and `batch`, or
/// a `deadline_ms` that is not a non-negative finite number (values above
/// kMaxDeadlineMs clamp rather than fail).
Result<WireRequest> ParseRequest(const std::string& line);

/// The client half: serializes `request` to its one-line wire form
/// (inverse of ParseRequest, used by server::Client and the round-trip
/// tests).
std::string EncodeRequest(const WireRequest& request);

/// Server-side counters reported by the STATS verb.
struct ServerCounters {
  size_t accepted_connections = 0;
  /// Sessions currently registered with an I/O thread (open sockets,
  /// including ones draining in-flight responses after a disconnect).
  size_t active_connections = 0;
  /// Requests admitted past admission control (includes still-running).
  size_t admitted = 0;
  /// Admitted requests that completed with an OK / error answer.
  size_t served_ok = 0;
  size_t served_error = 0;
  /// Subsets of served_error: requests that unwound cooperatively with
  /// kDeadlineExceeded (budget lapsed) / kCancelled (client disconnected
  /// mid-query).
  size_t served_deadline_exceeded = 0;
  size_t served_cancelled = 0;
  /// Requests bounced with ResourceExhausted by admission control.
  size_t rejected_overload = 0;
  /// Adaptive micro-batching: pool tasks that carried >= 2 logical
  /// requests from one epoll drain pass, and the logical requests they
  /// carried (each still settles its own served_* / admission slot).
  size_t batches_formed = 0;
  size_t batched_requests = 0;
  /// Requests currently queued or executing on the pool.
  size_t inflight = 0;
  size_t max_inflight = 0;
  /// Epoll event-loop threads owning the sessions (fixed at Start()).
  size_t io_threads = 0;
  /// Response payloads the serving path actually JSON-encoded (query and
  /// batch answers, including errors). A response-byte-cache hit serves
  /// without encoding, so on an all-hit hot path this stays flat while
  /// served_ok keeps climbing — the "zero EncodeResponse" proof.
  size_t responses_encoded = 0;
  /// Wire-level response byte cache (server::ResponseCache): requests
  /// served from cached encoded bytes / probes that found none /
  /// entries dropped by budget or invalidation / payloads refused
  /// admission (too big, or stale by generation) / resident entries /
  /// resident payload bytes / byte budget (0 = unbounded). All zero
  /// (capacity included) when the cache is disabled.
  size_t response_cache_hits = 0;
  size_t response_cache_misses = 0;
  size_t response_cache_evictions = 0;
  size_t response_cache_rejections = 0;
  size_t response_cache_entries = 0;
  size_t response_cache_bytes = 0;
  size_t response_cache_capacity = 0;
};

/// Host capability snapshot reported by the STATS verb: the probed cache
/// topology (util::CpuTopology::Host()), the active SIMD kernel backend,
/// and the per-shard working-set target derived from them.
struct HostStats {
  size_t num_cpus = 0;
  size_t l1d_bytes = 0;
  size_t l2_bytes = 0;
  size_t l3_bytes = 0;
  size_t cache_line_bytes = 0;
  bool cache_probed = false;
  std::string simd_backend;
  size_t shard_target_bytes = 0;
};

/// Everything the STATS verb reports: server counters, the host
/// capability snapshot, plus the per-relation cache counters from
/// core::Catalog::Stats().
struct ServerStats {
  ServerCounters server;
  HostStats host;
  std::map<std::string, core::RelationStats> relations;
  /// The server's bounded slow-query log, slowest first: the K worst
  /// traced requests with plan fingerprint, relation, and per-stage
  /// breakdown (empty when tracing never ran). Durations ride the wire in
  /// integer nanoseconds, so they round-trip exactly.
  std::vector<obs::SlowQueryEntry> slow_queries;
};

/// Response encoders. Every response is a single-line JSON object whose
/// "status" member is a util::StatusCode name ("OK", "NotFound", ...);
/// non-OK responses carry the message under "error".
std::string EncodeResultResponse(const sql::QueryResult& result);

/// Pre-sizing heuristic for EncodeResultResponseTo: the fixed envelope,
/// plus the column names, plus rows x (per-row JSON scaffolding + ~26
/// bytes per %.17g double + the first row's group-label bytes as the
/// per-row estimate). Deliberately a slight over-estimate so one reserve
/// covers the whole encode on typical GROUP BY payloads.
size_t EstimateResultResponseBytes(const sql::QueryResult& result);

/// Encodes into `*out` (cleared first, capacity retained and pre-grown
/// to the size estimate) — the allocation-recycling form the server's
/// per-session scratch buffers use. Bytes are identical to
/// EncodeResultResponse, which is a thin wrapper over this.
void EncodeResultResponseTo(const sql::QueryResult& result, std::string* out);

/// The bare {"status":"OK"} acknowledgement (the `set` verb's answer).
std::string EncodeOkResponse();
std::string EncodeBatchResponse(const std::vector<sql::QueryResult>& results);
std::string EncodeStatsResponse(const ServerStats& stats);
/// The METRICS verb's answer: the Prometheus exposition text carried as
/// one JSON string member ("metrics"), keeping the wire line-delimited.
std::string EncodeMetricsResponse(const std::string& prometheus_text);
std::string EncodeErrorResponse(const Status& status);

/// Client-side decoders: the inverse of the encoders above, restoring the
/// Status (code + message) for non-OK lines. Result values round-trip
/// bitwise (17-significant-digit doubles).
Result<sql::QueryResult> DecodeResultResponse(const std::string& line);
Result<std::vector<sql::QueryResult>> DecodeBatchResponse(
    const std::string& line);
Result<ServerStats> DecodeStatsResponse(const std::string& line);
/// Restores the raw Prometheus text from a METRICS response line.
Result<std::string> DecodeMetricsResponse(const std::string& line);

/// Checks a bare acknowledgement line ({"status":"OK"}): OK on success,
/// the restored error Status otherwise. The `set` verb's decoder.
Status DecodeOkResponse(const std::string& line);

/// Line framing over a socket, shared by the blocking client (and any
/// blocking caller; the epoll server has its own non-blocking flush
/// path). SendAll writes the whole buffer: EINTR retries, MSG_NOSIGNAL so
/// a vanished peer is an error rather than a process-killing SIGPIPE, and
/// EAGAIN/EWOULDBLOCK — a blocking socket's SO_SNDTIMEO expiring, or a
/// non-blocking fd passed in by mistake — returns false instead of
/// spinning, so a dead peer can never wedge the writer.
bool SendAll(int fd, const std::string& data);

/// Reads the next '\n'-terminated line (newline stripped) into `line`,
/// buffering partial reads in `buffer`. False on EOF/error with nothing
/// buffered; a final unterminated line is still delivered, so clients
/// that close without a trailing newline get an answer.
bool RecvLine(int fd, std::string* buffer, std::string* line);

}  // namespace themis::server

#endif  // THEMIS_SERVER_WIRE_H_
