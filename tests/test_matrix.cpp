#include "matrix.hpp"


#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using rrp::testing::Matrix;

TEST(Matrix, IdentityActsAsNeutralElement) {
  const Matrix i3 = Matrix::identity(3);
  std::vector<double> x = {1.0, -2.0, 3.5};
  EXPECT_EQ(i3.multiply(x), x);
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> x = {1.0, 0.0, -1.0};
  const auto y = a.multiply(x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(Matrix, MultiplyTransposeMatchesExplicit) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  std::vector<double> y = {1.0, 2.0};
  const auto x = a.multiply_transpose(y);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 9.0);
  EXPECT_DOUBLE_EQ(x[1], 12.0);
  EXPECT_DOUBLE_EQ(x[2], 15.0);
}

TEST(Matrix, ProductDimensionsChecked) {
  Matrix a(2, 3), b(2, 2);
  EXPECT_THROW(a * b, rrp::ContractViolation);
}

TEST(Matrix, InverseOfIdentityIsIdentity) {
  const Matrix i4 = Matrix::identity(4);
  EXPECT_LT(i4.inverse().max_abs_diff(i4), 1e-14);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  rrp::Rng rng(31);
  const std::size_t n = 12;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-1.0, 1.0) + (i == j ? 4.0 : 0.0);
  const Matrix prod = a * a.inverse();
  EXPECT_LT(prod.max_abs_diff(Matrix::identity(n)), 1e-9);
}

TEST(Matrix, InverseDetectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(a.inverse(), rrp::NumericalError);
}

TEST(Matrix, SolveMatchesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 3; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 2;
  std::vector<double> b = {9.0, 8.0};
  const auto x = a.solve(b);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SolveAgreesWithInverseMultiply) {
  rrp::Rng rng(32);
  const std::size_t n = 15;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-2.0, 2.0) + (i == j ? 6.0 : 0.0);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-5.0, 5.0);
  const auto x1 = a.solve(b);
  const auto x2 = a.inverse().multiply(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(Matrix, SolveRequiresPivotableSystem) {
  Matrix zero(3, 3);
  std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_THROW(zero.solve(b), rrp::NumericalError);
}

TEST(Matrix, RowSpanAllowsInPlaceEdits) {
  Matrix a(2, 2, 1.0);
  auto r0 = a.row(0);
  for (double& v : r0) v *= 3.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 1.0);
}

TEST(Matrix, OutOfRangeAccessRejected) {
  Matrix a(2, 2);
  EXPECT_THROW(a(2, 0), rrp::ContractViolation);
  EXPECT_THROW(a(0, 2), rrp::ContractViolation);
}

}  // namespace
