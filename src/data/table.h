#ifndef THEMIS_DATA_TABLE_H_
#define THEMIS_DATA_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "data/schema.h"
#include "data/tuple_key.h"
#include "util/status.h"

namespace themis::data {

/// In-memory columnar relation. Every row carries a weight (default 1.0)
/// so reweighted samples and uniformly-scaled samples are queried
/// identically: COUNT(*) over the population becomes SUM(weight) over the
/// table (Sec 4.1 of the paper).
class Table {
 public:
  explicit Table(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return columns_.size(); }

  /// Appends a row of value codes (one per attribute) with weight 1.
  void AppendRow(const std::vector<ValueCode>& codes);

  /// Reserves room for `rows` rows in every column and the weights.
  void Reserve(size_t rows);

  /// Resizes to `rows` rows; added rows hold kNullCode with weight 1, for
  /// producers that then fill cells in place with Set.
  void Resize(size_t rows);

  /// Appends a row given display labels, interning them into the domains.
  void AppendRowLabels(const std::vector<std::string>& labels);

  ValueCode Get(size_t row, size_t attr) const {
    return columns_[attr][row];
  }
  void Set(size_t row, size_t attr, ValueCode v) { columns_[attr][row] = v; }

  double weight(size_t row) const { return weights_[row]; }
  void set_weight(size_t row, double w) { weights_[row] = w; }
  const std::vector<double>& weights() const { return weights_; }
  std::vector<double>& mutable_weights() { return weights_; }

  /// Sum of all row weights (the table's estimate of the population size).
  double TotalWeight() const;

  /// Resets every weight to `w`.
  void FillWeights(double w);

  /// Full column access (for tight loops in solvers/executors).
  const std::vector<ValueCode>& column(size_t attr) const {
    return columns_[attr];
  }

  /// Approximate bytes a scan touches per row when it reads `num_columns`
  /// code columns plus the weight column — the working-set input to the
  /// executor's cache-aware auto shard policy.
  static constexpr size_t ScanBytesPerRow(size_t num_columns) {
    return num_columns * sizeof(ValueCode) + sizeof(double);
  }

  /// Key of `row` restricted to `attrs` (attribute indices).
  TupleKey KeyFor(size_t row, const std::vector<size_t>& attrs) const;

  /// Group-by over `attrs` summing weights per group (COUNT(*) semantics on
  /// a weighted table). Counts into a dense array with one cell per code
  /// combination while the attributes' code space is at most
  /// max(kDenseGroupCells, 4 * num_rows()); the map it returns equals,
  /// bitwise and in iteration order, the one `groups[KeyFor(r, attrs)] +=
  /// weight(r)` over ascending rows builds, which is how larger code
  /// spaces are counted.
  std::unordered_map<TupleKey, double, TupleKeyHash> GroupWeights(
      const std::vector<size_t>& attrs) const;

  /// Cell-space size up to which GroupWeights counts densely regardless of
  /// the row count.
  static constexpr uint64_t kDenseGroupCells = 1 << 16;

  /// Returns a new table with the same schema containing rows where
  /// `keep[row]` is true (weights preserved).
  Table Filter(const std::vector<bool>& keep) const;

  /// Deep copy.
  Table Clone() const;

 private:
  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<std::vector<ValueCode>> columns_;  // [attr][row]
  std::vector<double> weights_;
};

}  // namespace themis::data

#endif  // THEMIS_DATA_TABLE_H_
