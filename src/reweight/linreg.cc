#include "reweight/linreg.h"

#include <numeric>

#include "linalg/matrix.h"
#include "reweight/incidence.h"
#include "reweight/reweighter.h"
#include "util/logging.h"

namespace themis::reweight {

namespace {

/// Column layout of the one-hot encoding: intercept at 0, then one block of
/// N_i columns per covered attribute.
struct OneHotLayout {
  std::vector<size_t> covered_attrs;
  std::vector<size_t> offsets;  // offsets[i] = first column of attr block i
  size_t num_columns = 1;       // starts at 1 for the intercept

  explicit OneHotLayout(const data::Schema& schema,
                        const std::vector<size_t>& covered) {
    covered_attrs = covered;
    for (size_t a : covered_attrs) {
      offsets.push_back(num_columns);
      num_columns += schema.domain(a).size();
    }
  }

  size_t ColumnFor(size_t covered_index, data::ValueCode code) const {
    return offsets[covered_index] + static_cast<size_t>(code);
  }
};

/// Builds XS: the nS x m_{0/1} one-hot matrix of the sample over the
/// covered attributes (Example 4.1).
linalg::Matrix BuildOneHot(const data::Table& sample,
                           const OneHotLayout& layout) {
  linalg::Matrix xs(sample.num_rows(), layout.num_columns);
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    double* row = xs.RowData(r);
    row[0] = 1.0;  // intercept
    for (size_t i = 0; i < layout.covered_attrs.size(); ++i) {
      const data::ValueCode code = sample.Get(r, layout.covered_attrs[i]);
      if (code >= 0) row[layout.ColumnFor(i, code)] = 1.0;
    }
  }
  return xs;
}

}  // namespace

Status LinRegReweighter::Reweight(data::Table& sample,
                                  const aggregate::AggregateSet& aggregates,
                                  double population_size) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("LinReg: empty sample");
  }
  if (aggregates.empty()) {
    // Degenerate case: no constraints; fall back to uniform weights.
    sample.FillWeights(1.0);
    SumNormalize(sample, population_size);
    return Status::OK();
  }
  const data::Schema& schema = *sample.schema();
  OneHotLayout layout(schema, aggregates.CoveredAttributes());

  linalg::Matrix xs = BuildOneHot(sample, layout);
  THEMIS_ASSIGN_OR_RETURN(IncidenceSystem sys,
                          BuildIncidence(sample, aggregates));
  linalg::Matrix design = sys.g.MultiplyDense(xs);

  // Drop all-zero rows (groups with no sample participants) along with
  // their y entries, then append the intercept-encouraging row
  // [nS, 0, ..., 0] with target nS.
  linalg::Matrix a;
  linalg::Vector y;
  for (size_t r = 0; r < design.rows(); ++r) {
    bool all_zero = true;
    for (size_t c = 0; c < design.cols(); ++c) {
      if (design(r, c) != 0.0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    linalg::Vector row(design.RowData(r), design.RowData(r) + design.cols());
    a.AppendRow(row);
    y.push_back(sys.y[r]);
  }
  const double ns = static_cast<double>(sample.num_rows());
  linalg::Vector intercept_row(layout.num_columns, 0.0);
  intercept_row[0] = ns;
  a.AppendRow(intercept_row);
  y.push_back(ns);

  auto nnls = linalg::Nnls(a, y, options_);
  if (!nnls.ok()) return nnls.status();
  beta_ = nnls->x;

  // w(t) = beta . t_{0/1}.
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    double w = beta_[0];
    for (size_t i = 0; i < layout.covered_attrs.size(); ++i) {
      const data::ValueCode code = sample.Get(r, layout.covered_attrs[i]);
      if (code >= 0) w += beta_[layout.ColumnFor(i, code)];
    }
    sample.set_weight(r, w);
  }
  SumNormalize(sample, population_size);
  return Status::OK();
}

}  // namespace themis::reweight
