#ifndef THEMIS_CORE_OPTIONS_H_
#define THEMIS_CORE_OPTIONS_H_

#include <cstdint>

#include "bn/learn.h"
#include "reweight/ipf.h"

namespace themis::core {

/// Which sample reweighting technique the model uses (Sec 4.1). The paper's
/// hybrid uses IPF (its best reweighter, Fig 14).
enum class ReweightMethod { kUniform, kLinReg, kIpf };

const char* ReweightMethodName(ReweightMethod method);

/// Build-time configuration of a Themis model, and the catalog-wide
/// serving bounds a server::QueryServer reads from it. Each knob lives in
/// exactly one place: per-server settings (I/O threads, micro-batching,
/// tracing, the response-cache switch) are server::QueryServer::Options,
/// and the plan cache, result memo and inference cache use fixed entry
/// bounds (core::HybridEvaluator).
struct ThemisOptions {
  ReweightMethod reweight = ReweightMethod::kIpf;
  reweight::IpfOptions ipf;

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

  /// Plan-level result memo: (plan fingerprint, mode) -> QueryResult for
  /// GROUP BY / passthrough plans, so repeated traffic skips execution
  /// entirely. Invalidated by Build() (the evaluator is rebuilt).
  bool enable_result_memo = true;

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

  /// Serving admission bound: how many wire requests a server::QueryServer
  /// fronting this catalog may have in flight (queued or executing on the
  /// pool) before it rejects new ones with ResourceExhausted. 0 disables
  /// admission control (never reject).
  size_t max_inflight = 256;

  /// Byte budget of the wire-level response byte cache a
  /// server::QueryServer fronting this catalog keeps (cost-aware LRU over
  /// encoded payload bytes); 0 means unbounded.
  size_t response_cache_bytes = 32ull << 20;

  uint64_t seed = 42;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_OPTIONS_H_
