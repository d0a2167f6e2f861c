#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/cholesky.h"
#include "linalg/csr_matrix.h"
#include "linalg/matrix.h"
#include "linalg/nnls.h"
#include "linalg/vector_ops.h"
#include "util/random.h"

namespace themis::linalg {
namespace {

TEST(VectorOpsTest, DotAndNorm) {
  Vector a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
}

TEST(VectorOpsTest, AxpyScale) {
  Vector x = {1, 1}, y = {2, 3};
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  Scale(0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
}

TEST(VectorOpsTest, MinMaxAddSubtract) {
  Vector a = {3, -1, 2};
  EXPECT_DOUBLE_EQ(Max(a), 3.0);
  EXPECT_DOUBLE_EQ(Min(a), -1.0);
  Vector s = Subtract(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  Vector p = Add(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(p[1], 0.0);
}

TEST(MatrixTest, FromRowsAndAccess) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, MatVec) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Vector y = m.MatVec({1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, TransposeMatVec) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Vector y = m.TransposeMatVec({1, 1});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(MatrixTest, MatMulIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix p = m.MatMul(Matrix::Identity(2));
  EXPECT_DOUBLE_EQ(p(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

TEST(MatrixTest, MatMulKnown) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});
  Matrix b = Matrix::FromRows({{1}, {2}, {3}});
  Matrix p = a.MatMul(b);
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_EQ(p.cols(), 1u);
  EXPECT_DOUBLE_EQ(p(0, 0), 14.0);
}

TEST(MatrixTest, GramIsAtA) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = a.Gram();
  Matrix expected = a.Transpose().MatMul(a);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(g(i, j), expected(i, j), 1e-12);
    }
  }
}

TEST(MatrixTest, AppendRowGrowsMatrix) {
  Matrix m;
  m.AppendRow({1, 2, 3});
  m.AppendRow({4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(CholeskyTest, FactorAndSolve) {
  // SPD matrix [[4,2],[2,3]].
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  Vector x = chol->Solve({8, 7});  // solution [1.25, 1.5]
  EXPECT_NEAR(x[0], 1.25, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a = Matrix::FromRows({{0, 1}, {1, 0}});
  EXPECT_FALSE(Cholesky::Factor(a).ok());
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_FALSE(Cholesky::Factor(a).ok());
}

TEST(CholeskyTest, LogDet) {
  Matrix a = Matrix::FromRows({{4, 0}, {0, 9}});
  auto chol = Cholesky::Factor(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol->LogDet(), std::log(36.0), 1e-12);
}

TEST(LeastSquaresTest, ExactSystem) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}});
  Vector b = {1, 2, 3};
  auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-9);
  EXPECT_NEAR((*x)[1], 2.0, 1e-9);
}

TEST(LeastSquaresTest, OverdeterminedMinimizesResidual) {
  // Fit y = c to {1, 2, 3}: best c is the mean 2.
  Matrix a = Matrix::FromRows({{1}, {1}, {1}});
  auto x = LeastSquares(a, {1, 2, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-9);
}

TEST(LeastSquaresTest, RankDeficientStillSolves) {
  // Duplicate columns: ridge fallback must kick in.
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  auto x = LeastSquares(a, {2, 4, 6});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0] + (*x)[1], 2.0, 1e-3);
}

TEST(NnlsTest, UnconstrainedOptimumIsFeasible) {
  Matrix a = Matrix::FromRows({{1, 0}, {0, 1}});
  auto r = Nnls(a, {2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->x[0], 2.0, 1e-9);
  EXPECT_NEAR(r->x[1], 3.0, 1e-9);
  EXPECT_NEAR(r->residual_norm, 0.0, 1e-9);
}

TEST(NnlsTest, ClampsNegativeComponent) {
  // Unconstrained solution of x = -1: NNLS must return 0.
  Matrix a = Matrix::FromRows({{1}});
  auto r = Nnls(a, {-1});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->x[0], 0.0);
  EXPECT_NEAR(r->residual_norm, 1.0, 1e-12);
}

TEST(NnlsTest, KktConditionsHold) {
  // Random overdetermined system; verify the KKT conditions:
  // x >= 0, and gradient g = A^T(Ax-b) satisfies g_i >= -tol, with
  // g_i ~ 0 where x_i > 0.
  Rng rng(11);
  Matrix a(20, 6);
  Vector b(20);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 6; ++j) a(i, j) = rng.Normal(0, 1);
    b[i] = rng.Normal(0, 1);
  }
  auto r = Nnls(a, b);
  ASSERT_TRUE(r.ok());
  Vector g = a.TransposeMatVec(Subtract(a.MatVec(r->x), b));
  for (size_t j = 0; j < 6; ++j) {
    EXPECT_GE(r->x[j], 0.0);
    EXPECT_GE(g[j], -1e-6);
    if (r->x[j] > 1e-9) EXPECT_NEAR(g[j], 0.0, 1e-6);
  }
}

TEST(NnlsTest, RecoversNonNegativeGroundTruth) {
  Rng rng(13);
  Matrix a(30, 4);
  for (size_t i = 0; i < 30; ++i) {
    for (size_t j = 0; j < 4; ++j) a(i, j) = std::abs(rng.Normal(0, 1));
  }
  Vector truth = {0.5, 0.0, 2.0, 1.0};
  Vector b = a.MatVec(truth);
  auto r = Nnls(a, b);
  ASSERT_TRUE(r.ok());
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(r->x[j], truth[j], 1e-6);
}

TEST(NnlsTest, DimensionMismatchFails) {
  Matrix a(3, 2);
  EXPECT_FALSE(Nnls(a, {1, 2}).ok());
}

TEST(BinaryCsrTest, RowAccessAndMatVec) {
  // Rows {0, 1, 3}, {2} and {}.
  BinaryCsrMatrix g(4, {0, 3, 4, 4}, {0, 1, 3, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.nonzeros(), 4u);
  Vector w = {1, 2, 3, 4};
  Vector y = g.MatVec(w);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(g.RowDot(0, w), 7.0);
}

TEST(BinaryCsrTest, MultiplyDense) {
  BinaryCsrMatrix g(3, {0, 2, 3}, {0, 2, 1});
  Matrix x = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix p = g.MultiplyDense(x);
  EXPECT_DOUBLE_EQ(p(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 8.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 4.0);
}

/// RowDots runs up to eight add chains side by side; each row's sum must
/// still equal RowDot's serial chain bit for bit, whatever the row lengths
/// (empty rows included) and whatever order the rows are listed in.
TEST(BinaryCsrTest, RowDotsMatchesRowDotBitwise) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 400));
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 30));
    std::vector<size_t> row_ptr = {0};
    std::vector<uint32_t> col_idx;
    for (size_t r = 0; r < rows; ++r) {
      const int64_t len =
          rng.UniformInt(0, 3) == 0 ? 0 : rng.UniformInt(0, 500);
      for (int64_t k = 0; k < len; ++k) {
        col_idx.push_back(static_cast<uint32_t>(
            rng.UniformInt(0, static_cast<int64_t>(cols) - 1)));
      }
      row_ptr.push_back(col_idx.size());
    }
    BinaryCsrMatrix g(cols, row_ptr, col_idx);
    Vector x(cols);
    for (double& v : x) {
      v = std::ldexp(rng.UniformDouble(), static_cast<int>(rng.UniformInt(-30, 30)));
    }
    std::vector<uint32_t> listed;
    for (size_t r = 0; r < rows; ++r) {
      if (rng.UniformInt(0, 4) != 0) listed.push_back(static_cast<uint32_t>(r));
    }
    std::shuffle(listed.begin(), listed.end(), rng.engine());
    Vector out(rows, -1.0);
    g.RowDots(listed, x, out.data());
    for (uint32_t r : listed) {
      const double want = g.RowDot(r, x);
      EXPECT_EQ(std::memcmp(&out[r], &want, sizeof(double)), 0)
          << "trial " << trial << " row " << r;
    }
  }
}

/// Property sweep: NNLS solutions are always non-negative and never worse
/// than the zero vector, across random problem sizes.
class NnlsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NnlsPropertyTest, FeasibleAndNoWorseThanZero) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t m = 5 + static_cast<size_t>(rng.UniformInt(0, 20));
  const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 8));
  Matrix a(m, n);
  Vector b(m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = rng.Normal(0, 1);
    b[i] = rng.Normal(0, 2);
  }
  auto r = Nnls(a, b);
  ASSERT_TRUE(r.ok());
  for (double v : r->x) EXPECT_GE(v, 0.0);
  EXPECT_LE(r->residual_norm, Norm2(b) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnlsPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace themis::linalg
