#ifndef THEMIS_WORKLOAD_EXPERIMENT_H_
#define THEMIS_WORKLOAD_EXPERIMENT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aggregate/aggregate.h"
#include "core/catalog.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "workload/queries.h"

namespace themis::workload {

/// Scale factor for the benchmark harnesses, read from the THEMIS_SCALE
/// environment variable (default 1.0). Population sizes are multiplied by
/// it, so setting e.g. THEMIS_SCALE=5 runs closer to paper scale.
double EnvScale();

/// All size-d subsets of `attrs` (used to enumerate candidate aggregates).
std::vector<std::vector<size_t>> AllSubsets(const std::vector<size_t>& attrs,
                                            size_t d);

/// Computes exact population aggregates for each attribute set.
aggregate::AggregateSet MakeAggregates(
    const data::Table& population,
    const std::vector<std::vector<size_t>>& attr_sets);

/// The four query-answering methods every accuracy experiment compares
/// (Sec 6.4), held as relations of one core::Catalog (no per-method
/// instance juggling): each relation carries its own reweighting options
/// and model but shares the catalog's thread pool, and all register the
/// SQL table name "sample" so one query text runs against every method.
///  - "AQP":    uniformly reweighted sample (the default AQP baseline)
///  - "LinReg": NNLS linear-regression reweighted sample
///  - "IPF":    IPF-reweighted sample (the paper's best reweighter)
///  - "BB":     the Bayesian network alone (variant per options)
///  - "Hybrid": Themis's hybrid evaluator (IPF sample + BN)
class MethodSuite {
 public:
  static Result<MethodSuite> Build(const data::Table& sample,
                                   const aggregate::AggregateSet& aggregates,
                                   double population_size,
                                   const core::ThemisOptions& base_options);

  /// Percent-difference errors for each query under `method` (one of the
  /// names above).
  Result<std::vector<double>> Errors(
      const std::string& method,
      const std::vector<PointQuery>& queries) const;

  /// SQL result for `method` (routes to the right relation/mode).
  Result<sql::QueryResult> Query(const std::string& method,
                                 const std::string& sql) const;

  /// Batched variant: plans everything first, then submits whole plans to
  /// the catalog's thread pool so distinct queries run concurrently
  /// (K-world GROUP BY fan-outs nest on the same pool), with shared
  /// inference-cache and result-memo reuse. Bitwise identical answers to a
  /// Query() loop at any pool size.
  Result<std::vector<sql::QueryResult>> QueryBatch(
      const std::string& method, std::span<const std::string> sqls) const;

  static std::vector<std::string> MethodNames() {
    return {"AQP", "LinReg", "IPF", "BB", "Hybrid"};
  }

  const core::ThemisModel& full_model() const {
    return *catalog_.model("Hybrid");
  }
  const core::HybridEvaluator& full_evaluator() const {
    return *catalog_.evaluator("Hybrid");
  }

  /// The catalog holding the method relations.
  const core::Catalog& catalog() const { return catalog_; }

 private:
  MethodSuite() = default;

  /// Maps a method name to (catalog relation, answer mode).
  Result<std::pair<const core::HybridEvaluator*, core::AnswerMode>> Route(
      const std::string& method) const;

  core::Catalog catalog_;
};

}  // namespace themis::workload

#endif  // THEMIS_WORKLOAD_EXPERIMENT_H_
