#ifndef THEMIS_BN_CPT_H_
#define THEMIS_BN_CPT_H_

#include <vector>

#include "data/schema.h"
#include "data/tuple_key.h"
#include "util/status.h"

namespace themis::bn {

/// Conditional probability table Pr(X_child | Pa(X_child)) with dense
/// storage: one probability row (simplex over child values) per parent
/// configuration. Parent configurations are mixed-radix encoded in the
/// order of `parents()`.
class Cpt {
 public:
  Cpt() = default;

  /// `parents` are attribute indices (sorted); sizes are the domain sizes.
  Cpt(size_t child, size_t child_size, std::vector<size_t> parents,
      std::vector<size_t> parent_sizes);

  size_t child() const { return child_; }
  size_t child_size() const { return child_size_; }
  const std::vector<size_t>& parents() const { return parents_; }
  const std::vector<size_t>& parent_sizes() const { return parent_sizes_; }
  size_t num_configs() const { return num_configs_; }

  /// Number of free parameters q_i (r_i - 1), the BIC complexity term.
  size_t NumFreeParameters() const {
    return num_configs_ * (child_size_ - 1);
  }

  /// Mixed-radix index of a parent configuration given codes aligned with
  /// parents().
  size_t ConfigIndex(const data::TupleKey& parent_codes) const;

  /// Inverse of ConfigIndex.
  data::TupleKey DecodeConfig(size_t config) const;

  double Prob(size_t config, data::ValueCode child_value) const {
    return probs_[config * child_size_ + static_cast<size_t>(child_value)];
  }
  void SetProb(size_t config, data::ValueCode child_value, double p) {
    probs_[config * child_size_ + static_cast<size_t>(child_value)] = p;
  }

  /// Raw flat storage, laid out [config][child_value].
  const std::vector<double>& flat() const { return probs_; }
  std::vector<double>& mutable_flat() { return probs_; }

  /// Sets every row to the uniform distribution.
  void FillUniform();

  /// Rescales each config row to sum to one (uniform if a row is all-zero).
  void NormalizeRows();

  /// Verifies every row is a simplex within `tol`.
  bool RowsAreSimplexes(double tol = 1e-6) const;

  /// Running sums of every row, laid out like flat(): entry j of a row is
  /// p_0 + ... + p_j, accumulated left to right. Rows must be non-negative
  /// so the sums never decrease.
  std::vector<double> CumulativeRows() const;

  /// The child value forward sampling draws for a uniform `r` in [0, 1)
  /// from row `config` of `cumulative` (a CumulativeRows() result): the
  /// first value whose running sum exceeds `r`, so a zero-probability
  /// value is never drawn, or the last value when the row sums to at most
  /// `r`.
  data::ValueCode SampleCumulative(const std::vector<double>& cumulative,
                                   size_t config, double r) const;

 private:
  size_t child_ = 0;
  size_t child_size_ = 0;
  std::vector<size_t> parents_;
  std::vector<size_t> parent_sizes_;
  size_t num_configs_ = 1;
  std::vector<double> probs_;
};

}  // namespace themis::bn

#endif  // THEMIS_BN_CPT_H_
