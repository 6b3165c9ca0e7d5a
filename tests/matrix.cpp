#include "matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rrp::testing {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  RRP_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  RRP_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  RRP_EXPECTS(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  RRP_EXPECTS(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
  RRP_EXPECTS(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::multiply_transpose(
    std::span<const double> x) const {
  RRP_EXPECTS(x.size() == rows_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
  }
  return y;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  RRP_EXPECTS(cols_ == rhs.rows_);
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* b = rhs.data_.data() + k * rhs.cols_;
      double* o = out.data_.data() + i * rhs.cols_;
      for (std::size_t j = 0; j < rhs.cols_; ++j) o[j] += aik * b[j];
    }
  }
  return out;
}

Matrix Matrix::inverse() const {
  RRP_EXPECTS(rows_ == cols_);
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) throw NumericalError("Matrix::inverse: singular");
    if (pivot != col) {
      std::swap_ranges(a.row(col).begin(), a.row(col).end(),
                       a.row(pivot).begin());
      std::swap_ranges(inv.row(col).begin(), inv.row(col).end(),
                       inv.row(pivot).begin());
    }
    const double diag = a(col, col);
    for (std::size_t c = 0; c < n; ++c) {
      a(col, c) /= diag;
      inv(col, c) /= diag;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double factor = a(r, col);
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        a(r, c) -= factor * a(col, c);
        inv(r, c) -= factor * inv(col, c);
      }
    }
  }
  return inv;
}

std::vector<double> Matrix::solve(std::span<const double> b) const {
  RRP_EXPECTS(rows_ == cols_);
  RRP_EXPECTS(b.size() == rows_);
  const std::size_t n = rows_;
  Matrix a = *this;
  std::vector<double> x(b.begin(), b.end());
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) throw NumericalError("Matrix::solve: singular");
    if (pivot != col) {
      std::swap_ranges(a.row(col).begin(), a.row(col).end(),
                       a.row(pivot).begin());
      std::swap(x[col], x[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      x[r] -= factor * x[col];
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a(ri, c) * x[c];
    x[ri] = acc / a(ri, ri);
  }
  return x;
}

double Matrix::max_abs_diff(const Matrix& other) const {
  RRP_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_);
  double worst = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    worst = std::max(worst, std::fabs(data_[i] - other.data_[i]));
  return worst;
}

}  // namespace rrp::testing
