#ifndef THEMIS_CORE_EVALUATOR_H_
#define THEMIS_CORE_EVALUATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bn/inference_engine.h"
#include "core/model.h"
#include "core/query_plan.h"
#include "data/posting_index.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "util/cancel.h"
#include "util/lru_cache.h"
#include "util/single_flight.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::core {

/// Which machinery answered (or should answer) a query.
enum class AnswerMode {
  kHybrid,      ///< the paper's evaluator (Sec 4.3)
  kSampleOnly,  ///< reweighted sample only (AQP / IPF / LinReg baselines)
  kBnOnly,      ///< Bayesian network only (BB et al. baselines)
};

/// Snapshot of the plan->result memo counters.
struct ResultMemoStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t entries = 0;
  /// Entries dropped by the LRU bound since the evaluator was built.
  size_t evictions = 0;
  /// Single-flight coalescing companions (see util/single_flight.h):
  /// distinct in-flight executions led, requests that attached to an
  /// already-running execution instead of re-executing, and followers
  /// that detached early because their own deadline/cancel fired.
  size_t coalesced_flights = 0;
  size_t coalesced_hits = 0;
  size_t coalesced_detached = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Themis's hybrid query evaluator (Sec 4.3), structured as a plan-based
/// engine: SQL text -> QueryPlanner (cached logical plan) -> ExecutePlan
/// (mode dispatch), with all BN inference routed through a memoizing
/// bn::InferenceEngine so repeated queries reuse prior computation.
///
/// Point queries: if the queried tuple exists in the (reweighted) sample,
/// answer from the sample; otherwise use direct BN inference,
/// n · Pr(X₁=x₁, ..., X_d=x_d). The sample side is one probe of the
/// sample's code posting index: the shortest of the queried codes' lists,
/// checked against the other attributes, its weights summed in ascending
/// row order.
///
/// GROUP BY queries: the reweighted-sample answer, unioned with groups
/// that appear in the BN answer but not the sample answer. The BN answer
/// comes from the K pre-generated uniformly-scaled samples, answered in
/// one fused executor call over the K samples registered as worlds of one
/// relation: only groups present in all K worlds survive (phantom-group
/// suppression) and their values are averaged. Both rules and the union
/// run on group codes; labels are decoded and sorted once, at the end.
///
/// The evaluator owns one data::PostingIndex per model table (the sample
/// and each BN sample); an attribute's lists are built on the first query
/// that needs them, never at model build.
///
/// All parallelism runs on one util::ThreadPool (the shared execution
/// runtime): QueryBatch fans whole plans across the pool, the fused BN
/// call runs its K worlds as nested pool tasks (inline when their
/// selections are small), and large scans shard by row range inside the
/// executor — one pool, no oversubscription, and results bitwise
/// identical to a sequential Query() loop at any pool size (every
/// fan-out merges deterministically).
/// GROUP BY / passthrough answers are additionally memoized per
/// (plan fingerprint, mode); the memo dies with the evaluator, so a
/// Build() rebuild invalidates it.
///
/// Thread-safe for concurrent const use; the posting indexes publish
/// their lazy builds through once-flags and the engine, planner, and
/// result memo carry their own locks.
class HybridEvaluator {
 public:
  /// LRU entry bounds of the per-evaluator caches: logical plans by
  /// normalized SQL text, memoized query results, and memoized BN
  /// inference answers.
  static constexpr size_t kPlanCacheCapacity = 256;
  static constexpr size_t kResultMemoCapacity = 256;
  static constexpr size_t kInferenceCacheCapacity = 4096;

  /// `model` must outlive the evaluator. `table_name` is the name the
  /// sample is registered under for SQL queries. Cache and pool knobs come
  /// from the model's ThemisOptions; a non-null `pool` overrides the
  /// options-derived pool (used by the catalog to share one pool across
  /// relations, and to compare pool sizes on one model). `relation` is the
  /// catalog relation stamp for plan fingerprints — it defaults to
  /// `table_name`, so two evaluators answering the same SQL text never
  /// share a memo fingerprint unless both their names agree.
  HybridEvaluator(const ThemisModel* model,
                  std::string table_name = "sample",
                  util::ThreadPool* pool = nullptr,
                  std::string relation = "");

  const std::string& table_name() const { return table_name_; }
  const std::string& relation() const { return relation_; }

  /// d-dimensional point query: estimated COUNT(*) of tuples with
  /// `values` on `attrs` (attribute indices into the sample schema).
  Result<double> PointEstimate(const std::vector<size_t>& attrs,
                               const data::TupleKey& values,
                               AnswerMode mode = AnswerMode::kHybrid) const;

  /// True if some sample tuple matches `values` on `attrs` (non-empty,
  /// one value per attribute).
  bool SampleContains(const std::vector<size_t>& attrs,
                      const data::TupleKey& values) const;

  /// Executes a SQL query (point, group-by, join) under the given mode:
  /// Plan + ExecutePlan. `cancel` (optional) is the serving layer's
  /// cooperative cancellation handle — see ExecutePlan. `trace`
  /// (optional) records per-stage spans (plan lookup, execution,
  /// single-flight wait, executor shard loops); null costs one pointer
  /// check per site and changes nothing else.
  Result<sql::QueryResult> Query(const std::string& sql,
                                 AnswerMode mode = AnswerMode::kHybrid,
                                 const util::CancelToken* cancel = nullptr,
                                 obs::TraceContext* trace = nullptr) const;

  /// Plans `sql` through the shared plan cache.
  Result<QueryPlanPtr> Plan(const std::string& sql) const;

  /// Executes a previously planned query on the shared pool (the K BN
  /// worlds and large scans fan out; a 1-thread pool degenerates to
  /// the identical sequential execution). Serves memoized GROUP BY /
  /// passthrough results when the plan carries a fingerprint.
  ///
  /// `cancel` is polled once on entry (before the memo, so an expired
  /// deadline answers kDeadlineExceeded even for a memoized plan) and
  /// once per shard inside the executors; a fired token unwinds with
  /// kCancelled / kDeadlineExceeded and is never memoized.
  /// `trace` additionally distinguishes the coalesced-follower case: a
  /// request that attached to another request's in-flight execution
  /// records the whole wait as an obs::Stage::kSingleFlightWait span and
  /// no kExecute span at all (only the leader executed).
  Result<sql::QueryResult> ExecutePlan(const QueryPlan& plan,
                                       AnswerMode mode,
                                       const util::CancelToken* cancel =
                                           nullptr,
                                       obs::TraceContext* trace =
                                           nullptr) const;

  /// Batched answering: plans every query first (repeated texts share one
  /// plan, malformed SQL fails before any work runs), then submits whole
  /// plans to the pool so distinct queries execute concurrently. Results
  /// line up with the input order and are bitwise identical to a
  /// sequential Query() loop. One `cancel` token covers the whole batch.
  Result<std::vector<sql::QueryResult>> QueryBatch(
      std::span<const std::string> sqls, AnswerMode mode,
      const util::CancelToken* cancel = nullptr,
      obs::TraceContext* trace = nullptr) const;

  /// The memoizing inference engine; null when the model has no BN.
  const bn::InferenceEngine* inference_engine() const {
    return engine_.get();
  }
  bn::InferenceEngine* mutable_inference_engine() { return engine_.get(); }

  const QueryPlanner& planner() const { return *planner_; }

  ResultMemoStats result_memo_stats() const;

  /// Aggregated scan-path counters over the sample executor and the
  /// K-world BN-sample executor — rows scanned/passed, groups emitted,
  /// join build/probe rows (see sql::ExecutorStats).
  sql::ExecutorStats executor_stats() const;

  /// Drops every memoized query result (the memo also dies naturally with
  /// the evaluator on rebuild).
  void ClearResultMemo() const;

  /// Run-time toggle for single-flight coalescing (on by default; the
  /// serving bench turns it off to measure the uncoalesced baseline).
  /// Const-qualified like ClearResultMemo so serving/bench code reaching
  /// the evaluator through the catalog's const surface can flip it
  /// between runs; answers are bitwise identical either way.
  void set_coalescing_enabled(bool enabled) const {
    coalescing_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool coalescing_enabled() const {
    return coalescing_enabled_.load(std::memory_order_relaxed);
  }

  /// Test-only: runs at the start of every *uncached* plan execution on
  /// the executing (leader) thread, after the single-flight entry has been
  /// published — lets tests park a leader mid-flight so followers attach
  /// deterministically. Const-qualified for the same catalog-surface
  /// reason as set_coalescing_enabled; set it before serving traffic.
  void set_uncached_execute_hook(std::function<void()> hook) const {
    uncached_execute_hook_ = std::move(hook);
  }

 private:
  /// Whether some sample row matches a point key, and the Σ weight of the
  /// matching rows (0 when absent).
  struct SampleProbe {
    bool present = false;
    double mass = 0.0;
  };
  SampleProbe ProbeSample(const std::vector<size_t>& attrs,
                          const data::TupleKey& values) const;

  /// n · Pr(values on attrs) by exact (memoized) BN inference.
  Result<double> BnPointEstimate(const std::vector<size_t>& attrs,
                                 const data::TupleKey& values) const;

  /// Runs `stmt` over the K BN samples in one fused executor call,
  /// keeping groups present in all K and averaging their values in
  /// sample order. A one-world result, still on codes.
  Result<sql::CodedResult> BnGroupBy(const sql::SelectStatement& stmt,
                                     const util::CancelToken* cancel,
                                     obs::TraceContext* trace) const;

  /// Executes the plan without consulting the result memo.
  Result<sql::QueryResult> ExecutePlanUncached(
      const QueryPlan& plan, AnswerMode mode,
      const util::CancelToken* cancel, obs::TraceContext* trace) const;

  bool has_bn() const {
    return model_->network() != nullptr && !model_->bn_samples().empty();
  }

  const ThemisModel* model_;
  std::string table_name_;
  std::string relation_;
  /// Code posting indexes: [0] over the reweighted sample, [1 + k] over
  /// BN sample k. Sized once at construction (the executors point here).
  std::vector<data::PostingIndex> indexes_;
  sql::Executor sample_executor_;
  sql::Executor bn_executor_;  // the K BN samples, as K worlds
  std::unique_ptr<bn::InferenceEngine> engine_;
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  // when num_threads is set
  util::ThreadPool* pool_;
  size_t shard_rows_;  // ThemisOptions::shard_rows, resolved at build
  bool result_memo_enabled_;
  mutable std::atomic<bool> coalescing_enabled_{true};
  /// One memoized execution's answer, shared by the memo entry and the
  /// flight's followers; ExecutePlan copies it out once per caller.
  using SharedResult = std::shared_ptr<const sql::QueryResult>;
  mutable util::SingleFlight<Result<SharedResult>> flights_;
  mutable std::function<void()> uncached_execute_hook_;
  mutable std::mutex memo_mu_;
  mutable LruCache<std::string, SharedResult> result_memo_{
      kResultMemoCapacity};
  mutable size_t memo_hits_ = 0;
  mutable size_t memo_misses_ = 0;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_EVALUATOR_H_
