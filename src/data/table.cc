#include "data/table.h"

#include <algorithm>
#include <cstdint>

#include "util/logging.h"

namespace themis::data {

Table::Table(SchemaPtr schema) : schema_(std::move(schema)) {
  THEMIS_CHECK(schema_ != nullptr);
  columns_.resize(schema_->num_attributes());
}

void Table::AppendRow(const std::vector<ValueCode>& codes) {
  THEMIS_CHECK(codes.size() == columns_.size())
      << "row arity " << codes.size() << " != schema arity "
      << columns_.size();
  for (size_t a = 0; a < codes.size(); ++a) columns_[a].push_back(codes[a]);
  weights_.push_back(1.0);
  ++num_rows_;
}

void Table::Reserve(size_t rows) {
  for (std::vector<ValueCode>& column : columns_) column.reserve(rows);
  weights_.reserve(rows);
}

void Table::Resize(size_t rows) {
  for (std::vector<ValueCode>& column : columns_) {
    column.resize(rows, kNullCode);
  }
  weights_.resize(rows, 1.0);
  num_rows_ = rows;
}

void Table::AppendRowLabels(const std::vector<std::string>& labels) {
  THEMIS_CHECK(labels.size() == columns_.size());
  std::vector<ValueCode> codes(labels.size());
  for (size_t a = 0; a < labels.size(); ++a) {
    codes[a] = schema_->domain(a).Intern(labels[a]);
  }
  AppendRow(codes);
}

double Table::TotalWeight() const {
  double s = 0;
  for (double w : weights_) s += w;
  return s;
}

void Table::FillWeights(double w) {
  for (double& x : weights_) x = w;
}

TupleKey Table::KeyFor(size_t row, const std::vector<size_t>& attrs) const {
  TupleKey key(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) key[i] = columns_[attrs[i]][row];
  return key;
}

std::unordered_map<TupleKey, double, TupleKeyHash> Table::GroupWeights(
    const std::vector<size_t>& attrs) const {
  std::unordered_map<TupleKey, double, TupleKeyHash> groups;
  if (num_rows_ == 0) return groups;
  // Each row's cell: mixed radix over code + 1 per attribute, so the null
  // code gets digit 0. Codes below kNullCode, a cell space past
  // max(kDenseGroupCells, 4 * rows), or more rows than a 32-bit group slot
  // holds take the key-at-a-time loop.
  const uint64_t max_cells =
      std::max<uint64_t>(kDenseGroupCells, 4 * num_rows_);
  std::vector<uint64_t> radix(attrs.size());
  uint64_t cells = 1;
  bool dense = num_rows_ < UINT32_MAX;
  for (size_t i = 0; i < attrs.size() && dense; ++i) {
    ValueCode lo = columns_[attrs[i]][0];
    ValueCode hi = lo;
    for (ValueCode code : columns_[attrs[i]]) {  // vectorizes
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
    radix[i] = static_cast<uint64_t>(hi) + 2;
    dense = lo >= kNullCode && cells <= max_cells / radix[i];
    cells *= radix[i];
  }
  if (!dense) {
    for (size_t r = 0; r < num_rows_; ++r) {
      groups[KeyFor(r, attrs)] += weights_[r];
    }
    return groups;
  }
  // Group slots in first-appearance order, each summed in ascending row
  // order from 0.0: the sums the key-at-a-time loop forms.
  constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slots(cells, kNoSlot);
  std::vector<uint64_t> first_cell;
  std::vector<double> sums;
  for (size_t r = 0; r < num_rows_; ++r) {
    uint64_t cell = 0;
    for (size_t i = 0; i < attrs.size(); ++i) {
      cell = cell * radix[i] +
             static_cast<uint64_t>(columns_[attrs[i]][r] + 1);
    }
    uint32_t& slot = slots[cell];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(sums.size());
      first_cell.push_back(cell);
      sums.push_back(0.0);
    }
    sums[slot] += weights_[r];
  }

  // Inserting the groups in first-appearance order repeats the loop's
  // sequence of new keys, so the map's buckets and iteration order match
  // it too; callers that sum over the map stay bitwise.
  TupleKey key(attrs.size());
  for (size_t g = 0; g < sums.size(); ++g) {
    uint64_t c = first_cell[g];
    for (size_t i = attrs.size(); i-- > 0;) {
      key[i] = static_cast<ValueCode>(c % radix[i]) - 1;
      c /= radix[i];
    }
    groups.emplace(key, sums[g]);
  }
  return groups;
}

Table Table::Filter(const std::vector<bool>& keep) const {
  THEMIS_CHECK(keep.size() == num_rows_);
  Table out(schema_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (!keep[r]) continue;
    std::vector<ValueCode> codes(columns_.size());
    for (size_t a = 0; a < columns_.size(); ++a) codes[a] = columns_[a][r];
    out.AppendRow(codes);
    out.set_weight(out.num_rows() - 1, weights_[r]);
  }
  return out;
}

Table Table::Clone() const {
  Table out(schema_);
  out.num_rows_ = num_rows_;
  out.columns_ = columns_;
  out.weights_ = weights_;
  return out;
}

}  // namespace themis::data
