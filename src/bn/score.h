#ifndef THEMIS_BN_SCORE_H_
#define THEMIS_BN_SCORE_H_

#include <memory>
#include <vector>

#include "aggregate/aggregate.h"
#include "data/table.h"
#include "stats/freq_table.h"
#include "util/status.h"

namespace themis::bn {

/// Abstraction over "where do family statistics come from" during structure
/// learning: phase 1 scores moves from the population aggregates Γ, phase 2
/// from the sample S (Alg 2's D ← Γ / D ← S).
class ScoreSource {
 public:
  virtual ~ScoreSource() = default;

  /// True if the joint distribution of `attrs` can be computed from this
  /// source — for Γ, all attrs must appear together in one aggregate
  /// (BuildEdges' support test); for S, always true.
  virtual bool HasSupport(const std::vector<size_t>& attrs) const = 0;

  /// Joint counts over `attrs`, scaled to `total()` observations.
  virtual Result<stats::FreqTable> JointCounts(
      const std::vector<size_t>& attrs) const = 0;

  /// Number of observations behind the counts (n for Γ, nS for S).
  virtual double total() const = 0;
};

/// Family statistics from the sample S.
class SampleScoreSource : public ScoreSource {
 public:
  explicit SampleScoreSource(const data::Table* sample) : sample_(sample) {}

  bool HasSupport(const std::vector<size_t>& attrs) const override;
  Result<stats::FreqTable> JointCounts(
      const std::vector<size_t>& attrs) const override;
  double total() const override;

 private:
  const data::Table* sample_;
};

/// Family statistics from the aggregates Γ.
class AggregateScoreSource : public ScoreSource {
 public:
  explicit AggregateScoreSource(const aggregate::AggregateSet* aggregates)
      : aggregates_(aggregates) {}

  bool HasSupport(const std::vector<size_t>& attrs) const override;
  Result<stats::FreqTable> JointCounts(
      const std::vector<size_t>& attrs) const override;
  double total() const override;

 private:
  const aggregate::AggregateSet* aggregates_;
};

/// Joint counts over the family {child} ∪ parents (its attrs() sorted), or
/// NotFound when `source` lacks support for it (BuildEdges' support test,
/// Alg 3).
Result<stats::FreqTable> FamilyJointCounts(const ScoreSource& source,
                                           size_t child,
                                           const std::vector<size_t>& parents);

/// BIC score of the family (child | parents): the maximized family
/// log-likelihood minus the (log N / 2) · q_i(r_i − 1) complexity penalty.
/// Structure score is the sum of family scores; the learner works with
/// per-family deltas. `child_domain` / parent domain sizes come from the
/// schema.
Result<double> FamilyBicScore(const ScoreSource& source,
                              const data::Schema& schema, size_t child,
                              const std::vector<size_t>& parents);

/// The same score from the family's joint counts: `joint` is
/// FamilyJointCounts(source, child, parents) and `n` is
/// source.total(). Lets a caller scoring i→j and j→i count {i, j} once.
Result<double> FamilyBicScore(const stats::FreqTable& joint, double n,
                              const data::Schema& schema, size_t child,
                              const std::vector<size_t>& parents);

}  // namespace themis::bn

#endif  // THEMIS_BN_SCORE_H_
