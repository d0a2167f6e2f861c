#ifndef THEMIS_CORE_OPTIONS_H_
#define THEMIS_CORE_OPTIONS_H_

#include <cstdint>

#include "bn/learn.h"
#include "linalg/nnls.h"
#include "reweight/ipf.h"

namespace themis::core {

/// Which sample reweighting technique the model uses (Sec 4.1). The paper's
/// hybrid uses IPF (its best reweighter, Fig 14).
enum class ReweightMethod { kUniform, kLinReg, kIpf };

const char* ReweightMethodName(ReweightMethod method);

/// Build-time configuration of a Themis model.
struct ThemisOptions {
  ReweightMethod reweight = ReweightMethod::kIpf;
  reweight::IpfOptions ipf;
  linalg::NnlsOptions nnls;

  /// Bayesian network learning settings (variant, tree restriction, solver).
  bn::BnLearnOptions bn;

  /// K: number of BN-generated samples used to answer GROUP BY queries
  /// (Sec 4.2.4; the paper uses K = 10).
  size_t bn_group_by_samples = 10;

  /// Rows per generated BN sample; 0 means "same as the input sample".
  size_t bn_sample_rows = 0;

  /// Aggregate budget B for t-cherry pruning of the >=2D aggregates
  /// (Sec 5.1); 0 keeps every supplied aggregate.
  size_t aggregate_budget = 0;

  /// |P|; 0 infers it as the largest total count among the aggregates.
  double population_size = 0;

  /// Disables the probabilistic model entirely (reweighting-only model);
  /// used by the baseline configurations in the experiments.
  bool enable_bn = true;

  /// Memoization of BN marginals/probabilities in the inference engine:
  /// repeated and batched queries reuse prior computation (the serving
  /// analogue of the Table 6 reuse experiment). Answers are bitwise
  /// identical with the cache on or off.
  bool enable_inference_cache = true;

  /// LRU bound on memoized inference results; 0 means unbounded.
  size_t inference_cache_capacity = 4096;

  /// Cost-aware alternative to the entry-count bound: when positive, the
  /// inference cache is bounded by the approximate bytes of its entries
  /// (big marginal tables weigh more than scalar probabilities, and an
  /// entry larger than the whole budget is never admitted).
  size_t inference_cache_bytes = 0;

  /// LRU bound on logical plans cached by normalized SQL text.
  size_t plan_cache_capacity = 256;

  /// Plan-level result memo: (plan fingerprint, mode) -> QueryResult for
  /// GROUP BY / passthrough plans, so repeated traffic skips execution
  /// entirely. Invalidated by Build() (the evaluator is rebuilt).
  bool enable_result_memo = true;

  /// LRU bound on memoized query results; 0 means unbounded.
  size_t result_memo_capacity = 256;

  /// Cost-aware alternative to `result_memo_capacity`: when positive, the
  /// result memo is bounded by the approximate bytes of its entries
  /// (weighed by result row count and label sizes), so one huge GROUP BY
  /// answer cannot displace hundreds of small ones — and an answer larger
  /// than the whole budget is never admitted. A `core::Catalog` splits
  /// this budget (and `inference_cache_bytes`) evenly across its
  /// relations at Build time.
  size_t result_memo_bytes = 0;

  /// Worker threads of the execution runtime (cross-query batch fan-out,
  /// per-plan K BN-sample worlds, sharded scans — one shared pool).
  /// 0 = util::DefaultParallelism() (THEMIS_NUM_THREADS env override,
  /// else hardware concurrency).
  size_t num_threads = 0;

  /// Rows per shard of the executor's sharded scans, hash-join build
  /// sides, and hash-join probes. 0 = auto (THEMIS_SHARD_ROWS env
  /// override, else the cache-aware policy in sql::ResolveShardRows: a
  /// ~256 KiB per-shard working set over the query's scanned columns).
  /// The shard layout — and with it the float summation order — depends
  /// only on this value, the query, and the table, so answers stay
  /// bitwise identical across pool sizes; changing the value may
  /// legitimately reorder float sums.
  size_t shard_rows = 0;

  /// Single-flight query coalescing: concurrent executions of the same
  /// (plan fingerprint, mode) attach to the first one's in-flight result
  /// instead of re-executing — the companion of the result memo for the
  /// window *before* the first completion fills it. Answers are bitwise
  /// identical with coalescing on or off; followers that hit their own
  /// deadline detach without cancelling the leader, and a cancelled
  /// leader's execution survives while followers still want it. Only
  /// memoizable plans coalesce. Can also be toggled at run time via
  /// HybridEvaluator::set_coalescing_enabled (the bench uses that to
  /// measure the uncoalesced baseline).
  bool enable_single_flight = true;

  /// Serving admission bound: how many wire requests a server::QueryServer
  /// fronting this catalog may have in flight (queued or executing on the
  /// pool) before it rejects new ones with ResourceExhausted. 0 disables
  /// admission control (never reject).
  size_t max_inflight = 256;

  /// Serving default deadline: requests that arrive without their own
  /// `deadline_ms` wire field inherit this budget (milliseconds from
  /// admission). An expired request unwinds cooperatively at the next
  /// per-shard check and answers kDeadlineExceeded. 0 = no default
  /// deadline.
  uint64_t default_deadline_ms = 0;

  /// Request-trace sampling: trace every Nth served request (per-stage
  /// span timings feeding the METRICS stage histograms and the slow-query
  /// log). 0 disables sampling; the always-on end-to-end request-latency
  /// histogram is unaffected. Untraced requests pay a single null-pointer
  /// check per recording site.
  size_t trace_sample_n = 0;

  /// Slow-query threshold in milliseconds: any request whose end-to-end
  /// latency can exceed this is traced regardless of `trace_sample_n`
  /// (i.e. a positive threshold traces every request, and only those at
  /// or over the threshold enter the slow-query log). 0 disables the
  /// threshold; sampled traces then enter the log unconditionally.
  uint64_t slow_query_ms = 0;

  /// Capacity K of the bounded slow-query log (the K worst traces by
  /// end-to-end latency, surfaced via STATS). 0 disables the log.
  size_t slow_query_log_k = 32;

  /// Wire-level response byte cache: a server::QueryServer fronting this
  /// catalog caches the fully encoded one-line wire payload of memoizable
  /// OK answers, keyed by (relation, plan fingerprint, mode), and serves
  /// repeats straight from the cached bytes on the I/O thread — zero JSON
  /// encoding, zero pool handoff. Invalidated alongside the result memo
  /// by Insert*/Build/DropRelation; served bytes are always bitwise
  /// identical to a fresh encode.
  bool enable_response_cache = true;

  /// Byte budget of the response byte cache (cost-aware LRU admission,
  /// like `result_memo_bytes`); 0 means unbounded.
  size_t response_cache_bytes = 32ull << 20;

  uint64_t seed = 42;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_OPTIONS_H_
