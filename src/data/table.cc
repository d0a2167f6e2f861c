#include "data/table.h"

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
  for (size_t r = 0; r < num_rows_; ++r) {
    groups[KeyFor(r, attrs)] += weights_[r];
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
