#ifndef THEMIS_LINALG_CSR_MATRIX_H_
#define THEMIS_LINALG_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace themis::linalg {

/// Sparse binary matrix in compressed-sparse-row form. Themis uses this for
/// the G0/1 incidence matrix of Sec 4.1: rows are aggregate groups,
/// columns are sample tuples, and entry (r, c) is 1 iff tuple c participates
/// in group r. Only the positions of ones are stored, as 32-bit column
/// indices.
class BinaryCsrMatrix {
 public:
  /// The empty matrix with `cols` columns and no rows.
  explicit BinaryCsrMatrix(size_t cols)
      : BinaryCsrMatrix(cols, {0}, {}) {}

  /// Row r holds col_idx[row_ptr[r], row_ptr[r + 1]). row_ptr must start
  /// at 0, be non-decreasing and end at col_idx.size(); every index must
  /// be < cols. Rows need not be sorted, and duplicates are not checked.
  BinaryCsrMatrix(size_t cols, std::vector<size_t> row_ptr,
                  std::vector<uint32_t> col_idx);

  size_t rows() const { return row_ptr_.size() - 1; }
  size_t cols() const { return cols_; }
  size_t nonzeros() const { return col_idx_.size(); }

  /// Column indices of the ones in row r.
  std::span<const uint32_t> Row(size_t r) const {
    return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Replaces every stored column index c with column_of[c], in place,
  /// and the column count with `cols`; each row keeps its stored order.
  /// Every column_of[c] must be < cols.
  void RelabelColumns(std::span<const uint32_t> column_of, size_t cols);

  /// y = G x (size rows()).
  Vector MatVec(const Vector& x) const;

  /// Dot product of row r with x (the "G0/1[j] . w" of Alg 1): one add
  /// chain from 0.0 over the row's stored order.
  double RowDot(size_t r, std::span<const double> x) const;

  /// out[r] = RowDot(r, x), bitwise, for every r in `rows`. Up to eight
  /// rows' add chains run side by side, each in its own stored order and
  /// never reassociated, so the call costs about its longest row rather
  /// than the sum of them; listing the rows longest first keeps the other
  /// lanes busy alongside it.
  void RowDots(std::span<const uint32_t> rows, std::span<const double> x,
               double* out) const;

  /// Dense product G * X where X is nS x m dense; result rows() x m.
  /// This computes the paper's [G0/1 XS] regression design matrix.
  Matrix MultiplyDense(const Matrix& x) const;

 private:
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
};

}  // namespace themis::linalg

#endif  // THEMIS_LINALG_CSR_MATRIX_H_
