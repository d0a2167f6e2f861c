#ifndef THEMIS_REWEIGHT_IPF_H_
#define THEMIS_REWEIGHT_IPF_H_

#include <cstddef>

#include "reweight/reweighter.h"

namespace themis::reweight {

/// Options for Iterative Proportional Fitting.
struct IpfOptions {
  /// Maximum sweeps over all aggregate constraints (Alg 1's maxIter).
  int max_iterations = 200;
  /// Relative satisfaction tolerance: converged when every constraint j
  /// has |G[j]·w − y[j]| ≤ tolerance · max(1, y[j]).
  double tolerance = 1e-8;
};

struct IpfStats {
  int iterations = 0;       ///< sweeps actually performed
  bool converged = false;   ///< all constraints satisfied within tolerance
  double max_violation = 0; ///< final max relative constraint violation
  /// Aggregate groups no sample tuple participates in: no weighting can
  /// meet them (the missing tuples of Example 4.2), and IPF skips them.
  size_t empty_constraints = 0;
  double empty_mass = 0;  ///< the sum of those groups' targets
  /// Classes of tuples that every pass puts in the same group; the sweeps
  /// keep one weight per class.
  size_t cells = 0;
};

/// Iterative Proportional Fitting (Sec 4.1.2, Alg 1): treats every tuple
/// weight as an independent unknown and rescales the participants of each
/// unsatisfied aggregate group in turn until all constraints hold (or the
/// iteration budget is exhausted — e.g. when the sample is missing tuples,
/// Example 4.2, in which case the approximate weights are still returned).
///
/// The weights and stats equal those of Alg 1's group-at-a-time loop bit
/// for bit. Tuples that share a group in every pass share a *cell*: they
/// start at 1.0 and are scaled by the same factors, so they hold the same
/// weight throughout, and the sweeps keep one weight per cell. Each group
/// still sums its tuples' cell weights one by one in ascending tuple order,
/// as Alg 1 sums its tuples. Each sweep walks the incidence system's passes
/// (IncidencePass): the groups of a pass have disjoint tuples, so one pass
/// sums every group with interleaved add chains
/// (BinaryCsrMatrix::RowDots), then scales the cell weights by their
/// group's factor, 1.0 for a skipped group. The convergence test stops at
/// the first pass holding a constraint over tolerance; only a sweep that
/// converges, or the last one, computes the full max_violation.
class IpfReweighter : public Reweighter {
 public:
  explicit IpfReweighter(IpfOptions options = {}) : options_(options) {}

  std::string name() const override { return "IPF"; }

  Status Reweight(data::Table& sample,
                  const aggregate::AggregateSet& aggregates,
                  double population_size) override;

  /// Statistics from the last Reweight call.
  const IpfStats& stats() const { return stats_; }

 private:
  IpfOptions options_;
  IpfStats stats_;
};

}  // namespace themis::reweight

#endif  // THEMIS_REWEIGHT_IPF_H_
