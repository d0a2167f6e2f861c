#ifndef THEMIS_REWEIGHT_INCIDENCE_H_
#define THEMIS_REWEIGHT_INCIDENCE_H_

#include <cstdint>
#include <vector>

#include "aggregate/aggregate.h"
#include "data/table.h"
#include "linalg/csr_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace themis::reweight {

/// A run of consecutive constraint rows from one aggregate whose group
/// keys are pairwise distinct. A sample tuple has one key per aggregate,
/// so it participates in at most one group of a pass: the groups' tuple
/// sets are disjoint, and IPF can rescale a whole pass at once exactly as
/// Alg 1 rescales its groups one after another.
struct IncidencePass {
  /// The pass is rows [first_row, first_row + num_groups) of G.
  size_t first_row = 0;
  size_t num_groups = 0;
  /// group_of[t]: the pass-local group (0 .. num_groups - 1) sample tuple
  /// t participates in, or num_groups when it participates in none.
  std::vector<uint32_t> group_of;
};

/// The constraint system shared by both reweighting techniques (Sec 4.1):
/// the 0/1 incidence matrix G0/1 with one row per aggregate group and one
/// column per sample tuple (entry 1 iff the tuple participates in the
/// group), and the target vector y of aggregate counts, y = Γ^C_1 ⊕ ... ⊕
/// Γ^C_B. Each row lists its tuples in ascending order.
struct IncidenceSystem {
  linalg::BinaryCsrMatrix g{0};
  linalg::Vector y;
  /// The rows of g split into passes, in row order. Each aggregate starts
  /// a pass, and so does a group key repeated within one aggregate.
  std::vector<IncidencePass> passes;
};

/// Builds the incidence system for `sample` against `aggregates` following
/// Example 4.1. Rows appear in aggregate order, groups in each aggregate's
/// stored order. Rows with no participating sample tuple are *kept* here;
/// the regression reweighter drops them (the paper drops all-zero rows of
/// G0/1 XS) and IPF skips them. Each tuple is mapped to its group by one
/// hash lookup per pass, and G is laid out by a counting sort over those
/// group ids. Fails when the sample has 2^32 rows or more (the column
/// indices are 32-bit).
Result<IncidenceSystem> BuildIncidence(
    const data::Table& sample, const aggregate::AggregateSet& aggregates);

}  // namespace themis::reweight

#endif  // THEMIS_REWEIGHT_INCIDENCE_H_
