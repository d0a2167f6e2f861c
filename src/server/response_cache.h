#ifndef THEMIS_SERVER_RESPONSE_CACHE_H_
#define THEMIS_SERVER_RESPONSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/immutable_buffer.h"
#include "util/lru_cache.h"

namespace themis::server {

/// Byte-budgeted LRU over fully encoded wire response lines — the third
/// (and cheapest) tier of the serving hot path, after the executor and
/// the plan->result memo: a repeat of a memoizable OK
/// answer is served from its exact cached bytes on the I/O thread, with
/// no pool handoff and no JSON encoding. Payloads are immutable and
/// refcounted (util::ImmutableBuffer), so a hit is one shared_ptr copy.
///
/// Two-level keying:
///  - a *probe key* — the literal request coordinates available on the
///    I/O thread with zero catalog access (relation field, effective
///    answer mode, raw SQL text) — maps to a *full key*;
///  - the full key — routed relation, that relation's generation at
///    admission time, mode, and the plan fingerprint — maps to the
///    payload bytes, cost-accounted by payload size.
///
/// Correctness under invalidation is generational: Invalidate(relation)
/// bumps the relation's generation, making every full key admitted under
/// the old generation unreachable (stale bytes can never be served), and
/// eagerly erases the relation's resident entries as hygiene. A miss
/// path snapshots Generation() *before* executing; Admit() refuses the
/// bytes if the generation moved while the query ran, closing the
/// in-flight-stale-readmission window.
///
/// Thread-safe; every operation takes the one internal mutex. The hit
/// path deliberately touches no catalog state, so serving cached bytes
/// is well-defined even while another thread mutates unrelated relations.
class ResponseCache {
 public:
  struct Stats {
    /// Requests served from cached bytes (inline on the I/O thread, or
    /// via the pool-thread second-chance lookup at encode time — a
    /// same-fingerprint text or a racing duplicate reusing bytes another
    /// request just admitted).
    size_t hits = 0;
    /// Inline probes that found nothing (each starts a miss path; a
    /// second-chance hit later in the same request still counts here).
    size_t misses = 0;
    /// Entries dropped by the byte budget or by invalidation.
    size_t evictions = 0;
    /// Payloads refused admission (larger than the whole budget, or
    /// stale by generation at admission time).
    size_t rejections = 0;
    size_t entries = 0;
    /// Resident payload bytes.
    size_t bytes = 0;
    /// The byte budget (0 = unbounded).
    size_t capacity = 0;
  };

  /// `capacity_bytes` bounds the resident payload bytes (0 = unbounded).
  explicit ResponseCache(size_t capacity_bytes);

  /// Inline probe on the I/O thread by the request's literal coordinates.
  /// Returns the cached payload, or a null buffer on miss.
  util::ImmutableBuffer Lookup(const std::string& probe_key);

  /// The relation's current generation. A miss path snapshots this
  /// *before* executing and passes it back to Admit().
  uint64_t Generation(const std::string& relation);

  /// Second-chance lookup by full key at encode time on a pool thread:
  /// a request whose text missed the probe (a different text with the
  /// same plan fingerprint, or a duplicate that raced an executing peer)
  /// finds the bytes already admitted and skips its own encode. Counts as
  /// a hit when found; never as a miss.
  util::ImmutableBuffer LookupFull(const std::string& full_key);

  /// Admits `payload` under `full_key` and wires `probe_key` to it —
  /// unless `relation` has been invalidated past `generation` since the
  /// snapshot, in which case the (possibly stale) bytes are refused.
  void Admit(const std::string& probe_key, const std::string& full_key,
             const std::string& relation, uint64_t generation,
             util::ImmutableBuffer payload);

  /// Bumps `relation`'s generation (every full key admitted under the
  /// old one becomes unreachable) and eagerly erases its resident
  /// entries. Fired from the catalog's mutation listener on
  /// InsertSample/InsertAggregate/Build/DropRelation.
  void Invalidate(const std::string& relation);

  Stats stats() const;

 private:
  struct ProbeEntry {
    std::string full_key;
    std::string relation;
  };
  struct ByteEntry {
    util::ImmutableBuffer payload;
    std::string relation;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, uint64_t> generations_;
  /// probe key -> full key; entry-count bounded (entries are two short
  /// strings — the byte budget governs the payloads below).
  LruCache<std::string, ProbeEntry> probe_;
  /// full key -> payload bytes; cost = payload size.
  LruCache<std::string, ByteEntry> bytes_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  /// Admissions refused because the relation's generation moved while
  /// the query executed (LruCache rejections cover only the too-big case).
  size_t stale_rejections_ = 0;
};

}  // namespace themis::server

#endif  // THEMIS_SERVER_RESPONSE_CACHE_H_
