#ifndef THEMIS_AGGREGATE_AGGREGATE_H_
#define THEMIS_AGGREGATE_AGGREGATE_H_

#include <string>
#include <utility>
#include <vector>

#include "data/table.h"
#include "stats/freq_table.h"
#include "util/random.h"
#include "util/status.h"

namespace themis::aggregate {

/// One population aggregate Γ_i = G_{γi, COUNT(*)}(P): a GROUP BY COUNT(*)
/// result over attribute set γi, as published by a statistics agency or
/// data-transparency report (Sec 3). Counts need not be exact — Themis
/// treats them as marginal constraints to be (approximately) satisfied.
struct AggregateSpec {
  /// γi: attribute indices into the shared schema, kept sorted.
  std::vector<size_t> attrs;
  /// The M_i (attribute-values, count) pairs (a_{i,k}, c_{i,k}).
  std::vector<std::pair<data::TupleKey, double>> groups;

  size_t dimension() const { return attrs.size(); }
  size_t num_groups() const { return groups.size(); }

  /// Sum of all group counts (≈ population size when γi covers every
  /// population tuple).
  double TotalCount() const;

  /// View as a frequency table (for entropy / MI computations).
  stats::FreqTable ToFreqTable() const;

  /// Human-readable description "agg(O,DE): 7 groups, total 10".
  std::string Describe(const data::Schema& schema) const;
};

/// Computes the exact aggregate over `population` for `attrs` (sorted
/// internally). Weights are honored so this also works on weighted tables.
AggregateSpec ComputeAggregate(const data::Table& population,
                               std::vector<size_t> attrs);

/// Adds independent relative noise to every count: c <- max(0, c * (1 +
/// eps)), eps ~ N(0, sigma). Models perturbed / differentially-private
/// published aggregates (Sec 3). sigma <= 0 leaves `agg` and `rng` as
/// they are.
void PerturbAggregate(AggregateSpec& agg, double sigma, Rng& rng);

/// The set Γ of all available population aggregates.
class AggregateSet {
 public:
  AggregateSet() = default;
  explicit AggregateSet(data::SchemaPtr schema)
      : schema_(std::move(schema)) {}

  const data::SchemaPtr& schema() const { return schema_; }

  void Add(AggregateSpec spec) { specs_.push_back(std::move(spec)); }

  size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }
  const AggregateSpec& operator[](size_t i) const { return specs_[i]; }
  const std::vector<AggregateSpec>& specs() const { return specs_; }

  /// Union of all γi — the attributes Γ knows anything about. May be a
  /// strict subset of the schema (aggregates need not cover everything).
  std::vector<size_t> CoveredAttributes() const;

  /// Total number of groups (= constraints) across all aggregates.
  size_t TotalGroups() const;

  /// Returns the aggregate whose γ equals `attrs` (sorted), if present.
  const AggregateSpec* Find(const std::vector<size_t>& attrs) const;

  /// True if every attribute in `attrs` appears *together* in some single
  /// aggregate — the support test used by structure learning and pruning
  /// ("the attributes appear together in some aggregate", Sec 4.2.2).
  bool HasJointSupport(const std::vector<size_t>& attrs) const;

  /// Joint distribution of `attrs` computed from the smallest aggregate
  /// whose γ contains `attrs`, marginalized down; NotFound without support.
  Result<stats::FreqTable> JointDistribution(
      const std::vector<size_t>& attrs) const;

 private:
  data::SchemaPtr schema_;
  std::vector<AggregateSpec> specs_;
};

}  // namespace themis::aggregate

#endif  // THEMIS_AGGREGATE_AGGREGATE_H_
