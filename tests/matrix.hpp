// Dense row-major matrix of doubles: the reference oracle the sparse LU
// tests (test_sparse_lu.cpp) compare the simplex's basis algebra against.
// Sized for hundreds of rows, not BLAS-scale work.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace rrp::testing {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialised to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// y = A x.  Requires x.size() == cols().
  std::vector<double> multiply(std::span<const double> x) const;

  /// y = A^T x.  Requires x.size() == rows().
  std::vector<double> multiply_transpose(std::span<const double> x) const;

  Matrix operator*(const Matrix& rhs) const;

  /// In-place Gauss-Jordan inverse with partial pivoting.  Throws
  /// rrp::NumericalError if (numerically) singular.
  Matrix inverse() const;

  /// Solves A x = b by Gaussian elimination with partial pivoting.
  std::vector<double> solve(std::span<const double> b) const;

  /// Max-abs difference to another matrix of identical shape.
  double max_abs_diff(const Matrix& other) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rrp::testing
