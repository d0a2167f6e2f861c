#include "linalg/csr_matrix.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace themis::linalg {

namespace {

/// Advances W add chains by `steps` elements each: lane l adds
/// x[pos[l][0]], ..., x[pos[l][steps - 1]] to acc[l], in that order.
template <size_t W>
void AdvanceLanes(size_t steps, const uint32_t** pos, double* acc,
                  const double* x) {
  double a[W];
  const uint32_t* p[W];
  for (size_t l = 0; l < W; ++l) {
    a[l] = acc[l];
    p[l] = pos[l];
  }
  for (size_t k = 0; k < steps; ++k) {
#pragma GCC unroll 8
    for (size_t l = 0; l < W; ++l) a[l] += x[p[l][k]];
  }
  for (size_t l = 0; l < W; ++l) {
    acc[l] = a[l];
    pos[l] += steps;
  }
}

}  // namespace

BinaryCsrMatrix::BinaryCsrMatrix(size_t cols, std::vector<size_t> row_ptr,
                                 std::vector<uint32_t> col_idx)
    : cols_(cols), row_ptr_(std::move(row_ptr)), col_idx_(std::move(col_idx)) {
  THEMIS_CHECK(!row_ptr_.empty() && row_ptr_.front() == 0 &&
               row_ptr_.back() == col_idx_.size());
  THEMIS_DCHECK(std::is_sorted(row_ptr_.begin(), row_ptr_.end()));
  THEMIS_DCHECK(std::all_of(col_idx_.begin(), col_idx_.end(),
                            [&](uint32_t c) { return c < cols_; }));
}

void BinaryCsrMatrix::RelabelColumns(std::span<const uint32_t> column_of,
                                     size_t cols) {
  THEMIS_CHECK(column_of.size() == cols_);
  for (uint32_t& c : col_idx_) c = column_of[c];
  cols_ = cols;
  THEMIS_DCHECK(std::all_of(col_idx_.begin(), col_idx_.end(),
                            [&](uint32_t c) { return c < cols_; }));
}

Vector BinaryCsrMatrix::MatVec(const Vector& x) const {
  THEMIS_CHECK(x.size() == cols_);
  Vector y(rows(), 0.0);
  for (size_t r = 0; r < rows(); ++r) y[r] = RowDot(r, x);
  return y;
}

double BinaryCsrMatrix::RowDot(size_t r, std::span<const double> x) const {
  double s = 0;
  for (uint32_t c : Row(r)) s += x[c];
  return s;
}

void BinaryCsrMatrix::RowDots(std::span<const uint32_t> rows,
                              std::span<const double> x, double* out) const {
  THEMIS_CHECK(x.size() == cols_);
  constexpr size_t kLanes = 8;
  // Lanes [0, active) each walk one row; `next` is the first row of
  // `rows` no lane has taken yet.
  const uint32_t* pos[kLanes] = {};
  const uint32_t* end[kLanes] = {};
  double acc[kLanes] = {};
  uint32_t row[kLanes] = {};
  size_t active = 0;
  size_t next = 0;
  for (;;) {
    for (; active < kLanes && next < rows.size(); ++active, ++next) {
      const std::span<const uint32_t> r = Row(rows[next]);
      row[active] = rows[next];
      pos[active] = r.data();
      end[active] = r.data() + r.size();
      acc[active] = 0.0;
    }
    if (active == 0) return;
    // Run every lane as far as the shortest can go. The kernel's width is
    // a power of two; lanes past `active` shadow the longest lane, reading
    // its indices into accumulators nobody keeps.
    size_t steps = end[0] - pos[0];
    size_t longest = 0;
    for (size_t l = 1; l < active; ++l) {
      const size_t left = end[l] - pos[l];
      steps = std::min(steps, left);
      if (left > static_cast<size_t>(end[longest] - pos[longest])) longest = l;
    }
    const size_t width = std::bit_ceil(active);
    for (size_t l = active; l < width; ++l) pos[l] = pos[longest];
    switch (width) {
      case 1:
        AdvanceLanes<1>(steps, pos, acc, x.data());
        break;
      case 2:
        AdvanceLanes<2>(steps, pos, acc, x.data());
        break;
      case 4:
        AdvanceLanes<4>(steps, pos, acc, x.data());
        break;
      default:
        AdvanceLanes<8>(steps, pos, acc, x.data());
        break;
    }
    // Retire finished lanes; the last lane moves into each freed slot.
    for (size_t l = 0; l < active;) {
      if (pos[l] != end[l]) {
        ++l;
        continue;
      }
      out[row[l]] = acc[l];
      --active;
      pos[l] = pos[active];
      end[l] = end[active];
      acc[l] = acc[active];
      row[l] = row[active];
    }
  }
}

Matrix BinaryCsrMatrix::MultiplyDense(const Matrix& x) const {
  THEMIS_CHECK(x.rows() == cols_);
  Matrix out(rows(), x.cols());
  for (size_t r = 0; r < rows(); ++r) {
    double* orow = out.RowData(r);
    for (uint32_t c : Row(r)) {
      const double* xrow = x.RowData(c);
      for (size_t j = 0; j < x.cols(); ++j) orow[j] += xrow[j];
    }
  }
  return out;
}

}  // namespace themis::linalg
