#ifndef THEMIS_PERFBENCH_REPLAY_H_
#define THEMIS_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/evaluator.h"
#include "dataset.h"
#include "server/response_cache.h"
#include "sql/executor.h"
#include "util/status.h"

namespace themis::perfbench {

/// The spans of the in-process replay, one per layer boundary the replay
/// calls through. Top-level spans partition a request; the others
/// are children of kExecute (sample lookup, inference, scans) or of
/// kPlan (parse).
enum class Span {
  kDecode,       // server::ParseRequest
  kCacheProbe,   // ResponseCache::Lookup / Generation / LookupFull
  kRoute,        // Catalog::Route
  kPlan,         // HybridEvaluator::Plan
  kParse,        // sql::Parse (child of kPlan on a plan-cache miss)
  kExecute,      // the plan's execution
  kSampleLookup, // HybridEvaluator::SampleContains / PointEstimate(sample)
  kInfer,        // InferenceEngine::Probability
  kScanSample,   // sql::Executor::Execute over the reweighted sample
  kScanBn,       // the K sql::Executor::Execute calls over bn_samples()
  kEncode,       // EncodeResultResponseTo + ResponseCache::Admit
  kCount,
};

/// Span and count totals of a traced replay.
struct ReplayTotals {
  int64_t span_ns[static_cast<size_t>(Span::kCount)] = {};
  /// Wall time of every replayed request, end to end.
  int64_t request_ns = 0;
  /// The part of request_ns no top-level span covers.
  int64_t unaccounted_ns = 0;
  /// kExecute time of GROUP BY executions that ran their scans (the
  /// parent the scan spans are subtracted from) and of point executions.
  int64_t execute_self_ns = 0;
  size_t requests = 0;
  size_t cache_hits = 0;
  size_t encodes = 0;
  size_t points_executed = 0;
  size_t points_from_bn = 0;
};

/// Fresh serving state for an in-process replay over a built catalog's
/// models: one HybridEvaluator per relation (cold plan cache, inference
/// cache, result memo and group index), executors over the same tables
/// for the scan probes, and a response byte cache with the server's
/// budget. The catalog's own caches are never touched.
class ReplayState {
 public:
  ReplayState(const core::Catalog* catalog, const Dataset* data);

  /// Answers one wire request line the way server::QueryServer does
  /// (decode, response-cache probe, route, plan, execute, encode, admit)
  /// and returns the response bytes. With `totals`, records a span
  /// around every call into a layer and, after the request's clock
  /// stops, re-runs the scans of an executed GROUP BY through this
  /// state's own executors to split its execution time.
  Result<std::string> Answer(const std::string& line, ReplayTotals* totals);

 private:
  struct Relation {
    std::unique_ptr<core::HybridEvaluator> evaluator;
    sql::Executor sample_executor;
    std::vector<sql::Executor> bn_executors;
  };

  const core::Catalog* catalog_;
  std::map<std::string, Relation> relations_;
  std::unique_ptr<server::ResponseCache> cache_;
};

/// Per-relation results of the build replica.
struct BuildReplica {
  double read_csv_s = 0;
  size_t rows = 0;
  double read_aggregates_s = 0;
  double prune_s = 0;
  size_t offered = 0;
  size_t kept = 0;
  double ipf_s = 0;
  int ipf_iterations = 0;
  bool ipf_converged = false;
  double ipf_max_violation = 0;
  double learn_s = 0;
  double structure_s = 0;
  double parameter_s = 0;
  size_t edges = 0;
  double sample_s = 0;
};

/// Rebuilds the relation's model outside the catalog by calling the
/// build layers' public functions in ThemisModel::Build's order (ReadCsv,
/// ReadAggregateCsv, SelectAggregatesTCherry, IpfReweighter, LearnBayesNet,
/// K x SampleTable), timing each. Internal error unless the replica's
/// weights, network and K BN samples are bitwise equal to `model`'s and
/// its counts agree with model.build_stats().
Result<BuildReplica> ReplicateBuild(const RelationData& relation,
                                    const core::ThemisModel& model);

}  // namespace themis::perfbench

#endif  // THEMIS_PERFBENCH_REPLAY_H_
