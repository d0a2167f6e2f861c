#ifndef THEMIS_BN_CPT_H_
#define THEMIS_BN_CPT_H_

#include <algorithm>
#include <cstdint>
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

 private:
  size_t child_ = 0;
  size_t child_size_ = 0;
  std::vector<size_t> parents_;
  std::vector<size_t> parent_sizes_;
  size_t num_configs_ = 1;
  std::vector<double> probs_;
};

/// The draw forward sampling makes from a CPT. For a uniform `r` in
/// [0, 1) and a parent configuration, Sample returns the first child value
/// whose running row sum (p_0 + ... + p_j, accumulated left to right)
/// exceeds `r`, so a zero-probability value is never drawn, or the last
/// value when the row sums to at most `r`. A per-row guide (the first
/// value past each of child_size() equal slices of [0, 1)) starts the
/// search next to that value, so a draw from a large domain costs a step
/// or two instead of a binary search; the value found is the one
/// std::upper_bound finds. Every entry must be non-negative, so that the
/// running sums never decrease.
class CptSampler {
 public:
  explicit CptSampler(const Cpt& cpt);

  data::ValueCode Sample(size_t config, double r) const {
    const size_t n = child_size_;
    const double* row = cumulative_.data() + config * n;
    const size_t slice =
        r > 0 ? std::min(static_cast<size_t>(r * static_cast<double>(n)),
                         n - 1)
              : 0;
    size_t j = guide_[config * n + slice];
    while (j > 0 && row[j - 1] > r) --j;
    while (j < n && row[j] <= r) ++j;
    return static_cast<data::ValueCode>(std::min(j, n - 1));
  }

 private:
  size_t child_size_;
  std::vector<double> cumulative_;  // laid out like Cpt::flat()
  std::vector<uint32_t> guide_;     // [config][slice]
};

}  // namespace themis::bn

#endif  // THEMIS_BN_CPT_H_
