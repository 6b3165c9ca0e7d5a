#include "timeseries/auto_arima.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace {

using namespace rrp::ts;

std::vector<double> ar1(double phi, std::size_t n, std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n, 0.0);
  for (std::size_t t = 1; t < n; ++t) x[t] = phi * x[t - 1] + rng.normal();
  return x;
}

TEST(ChooseD, StationarySeriesNeedsNoDifferencing) {
  EXPECT_EQ(choose_d(ar1(0.5, 1000, 91)), 0u);
}

TEST(ChooseD, RandomWalkNeedsOneDifference) {
  rrp::Rng rng(92);
  std::vector<double> x(1000, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = x[t - 1] + rng.normal();
  EXPECT_EQ(choose_d(x), 1u);
}

TEST(ChooseD, IntegratedTwiceNeedsTwoDifferences) {
  rrp::Rng rng(93);
  std::vector<double> w(1000, 0.0), x(1000, 0.0);
  for (std::size_t t = 1; t < w.size(); ++t) w[t] = w[t - 1] + rng.normal();
  for (std::size_t t = 1; t < x.size(); ++t) x[t] = x[t - 1] + w[t];
  EXPECT_EQ(choose_d(x), 2u);
}

TEST(ChooseD, CappedAtTwo) {
  rrp::Rng rng(94);
  std::vector<double> a(2000, 0.0), b(2000, 0.0), c(2000, 0.0);
  for (std::size_t t = 1; t < a.size(); ++t) {
    a[t] = a[t - 1] + rng.normal();
    b[t] = b[t - 1] + a[t];
    c[t] = c[t - 1] + b[t];
  }
  EXPECT_LE(choose_d(c), 2u);
}

TEST(ChooseDSeasonal, PureNoiseNeedsNone) {
  rrp::Rng rng(95);
  std::vector<double> x(600);
  for (auto& v : x) v = rng.normal();
  EXPECT_EQ(choose_D(x, 24), 0u);
}

TEST(ChooseDSeasonal, StrongStableSeasonalityTriggers) {
  rrp::Rng rng(96);
  std::vector<double> x(720);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 10.0 * std::sin(2.0 * M_PI * static_cast<double>(t % 24) / 24.0) +
           rng.normal(0.0, 0.05);
  }
  EXPECT_EQ(choose_D(x, 24), 1u);
}

TEST(AutoArima, SelectsLowOrderForAr1) {
  const auto x = ar1(0.7, 1500, 97);
  AutoArimaOptions opt;
  opt.max_p = 2;
  opt.max_q = 2;
  const auto r = auto_arima(x, opt);
  EXPECT_GT(r.models_evaluated, 4u);
  // The chosen model must include an AR or MA component capturing the
  // dependence, and must not over-difference.
  EXPECT_EQ(r.model.order.d, 0u);
  EXPECT_GE(r.model.order.p + r.model.order.q, 1u);
}

TEST(AutoArima, ForcedDifferencingRespected) {
  const auto x = ar1(0.5, 800, 98);
  AutoArimaOptions opt;
  opt.max_p = 1;
  opt.max_q = 1;
  opt.d = 1;
  const auto r = auto_arima(x, opt);
  EXPECT_EQ(r.model.order.d, 1u);
}

TEST(AutoArima, SeasonalGridSearched) {
  rrp::Rng rng(99);
  const std::size_t s = 8;  // small period keeps the test fast
  std::vector<double> x(800);
  std::vector<double> seasonal_state(s, 0.0);
  for (std::size_t t = 0; t < x.size(); ++t) {
    const std::size_t phase = t % s;
    seasonal_state[phase] = 0.8 * seasonal_state[phase] + rng.normal();
    x[t] = seasonal_state[phase];
  }
  AutoArimaOptions opt;
  opt.max_p = 1;
  opt.max_q = 1;
  opt.max_P = 1;
  opt.max_Q = 1;
  opt.seasonal_period = s;
  opt.D = 0;
  const auto r = auto_arima(x, opt);
  // A seasonal AR process: the search must pick some seasonal order.
  EXPECT_GE(r.model.order.P + r.model.order.Q, 1u);
}

TEST(AutoArima, CriterionChangesAreHonored) {
  const auto x = ar1(0.6, 600, 100);
  AutoArimaOptions opt;
  opt.max_p = 2;
  opt.max_q = 2;
  opt.criterion = AutoArimaOptions::Criterion::Bic;
  const auto r = auto_arima(x, opt);
  EXPECT_GE(r.model.order.p + r.model.order.q, 1u);
}

TEST(AutoArima, MaxTotalOrderPrunesGrid) {
  const auto x = ar1(0.6, 400, 101);
  AutoArimaOptions wide, narrow;
  wide.max_p = 2;
  wide.max_q = 2;
  narrow.max_p = 2;
  narrow.max_q = 2;
  narrow.max_total_order = 1;
  const auto rw = auto_arima(x, wide);
  const auto rn = auto_arima(x, narrow);
  EXPECT_GT(rw.models_evaluated, rn.models_evaluated);
  EXPECT_LE(rn.model.order.p + rn.model.order.q, 1u);
}

}  // namespace
