#include "timeseries/arima.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "timeseries/acf.hpp"
#include "timeseries/series.hpp"

namespace {

using namespace rrp::ts;

std::vector<double> simulate_arma(std::span<const double> phi,
                                  std::span<const double> theta,
                                  double mean, double sd, std::size_t n,
                                  std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n, mean), e(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    e[t] = rng.normal(0.0, sd);
    double v = e[t];
    for (std::size_t l = 0; l < phi.size(); ++l)
      if (t > l) v += phi[l] * (x[t - 1 - l] - mean);
    for (std::size_t l = 0; l < theta.size(); ++l)
      if (t > l) v += theta[l] * e[t - 1 - l];
    x[t] = mean + v;
  }
  return x;
}

TEST(ExpandPoly, PureNonseasonalArPassesThrough) {
  std::vector<double> phi = {0.5, -0.2};
  const auto full = expand_ar(phi, {}, 0);
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[0], 0.5);
  EXPECT_DOUBLE_EQ(full[1], -0.2);
}

TEST(ExpandPoly, SeasonalArCrossTerms) {
  // (1 - 0.5B)(1 - 0.4B^4) = 1 - 0.5B - 0.4B^4 + 0.2B^5.
  std::vector<double> phi = {0.5};
  std::vector<double> sphi = {0.4};
  const auto full = expand_ar(phi, sphi, 4);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full[0], 0.5);
  EXPECT_DOUBLE_EQ(full[1], 0.0);
  EXPECT_DOUBLE_EQ(full[3], 0.4);
  EXPECT_DOUBLE_EQ(full[4], -0.2);
}

TEST(ExpandPoly, SeasonalMaCrossTerms) {
  // (1 + 0.3B)(1 + 0.6B^2) = 1 + 0.3B + 0.6B^2 + 0.18B^3.
  std::vector<double> theta = {0.3};
  std::vector<double> stheta = {0.6};
  const auto full = expand_ma(theta, stheta, 2);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_DOUBLE_EQ(full[0], 0.3);
  EXPECT_DOUBLE_EQ(full[1], 0.6);
  EXPECT_NEAR(full[2], 0.18, 1e-12);
}

TEST(CssResiduals, PureArResidualsRecoverNoise) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 500, 71);
  std::vector<LagTerm> ar;
  nonzero_terms(phi, ar);
  std::vector<double> e;
  css_residuals(x, ar, {}, 0, e);
  // Residual variance should be close to the innovation variance 1.
  std::vector<double> tail(e.begin() + 10, e.end());
  EXPECT_NEAR(rrp::stats::variance(tail), 1.0, 0.2);
}

TEST(FitSarima, RecoversAr1Coefficient) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 5.0, 1.0, 3000, 72);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  ASSERT_EQ(m.phi.size(), 1u);
  EXPECT_NEAR(m.phi[0], 0.7, 0.07);
  EXPECT_TRUE(m.has_mean);
  EXPECT_NEAR(m.mean, 5.0, 0.3);
  EXPECT_NEAR(m.sigma2, 1.0, 0.15);
}

TEST(FitSarima, RecoversAr2Coefficients) {
  std::vector<double> phi = {0.5, 0.3};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 4000, 73);
  SarimaOrder order;
  order.p = 2;
  const auto m = fit_sarima(x, order);
  EXPECT_NEAR(m.phi[0], 0.5, 0.08);
  EXPECT_NEAR(m.phi[1], 0.3, 0.08);
}

TEST(FitSarima, RecoversMa1Coefficient) {
  std::vector<double> theta = {0.6};
  const auto x = simulate_arma({}, theta, 0.0, 1.0, 4000, 74);
  SarimaOrder order;
  order.q = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_NEAR(m.theta[0], 0.6, 0.1);
}

TEST(FitSarima, FittedArIsStationaryEvenOnHardData) {
  // A near-random-walk series: the constrained parametrisation must
  // return |phi| < 1.
  rrp::Rng rng(75);
  std::vector<double> x(800, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = 0.999 * x[t - 1] + rng.normal(0.0, 0.01);
  SarimaOrder order;
  order.p = 1;
  SarimaFitOptions opt;
  opt.mean = SarimaFitOptions::Mean::Exclude;
  const auto m = fit_sarima(x, order, opt);
  EXPECT_LT(std::fabs(m.phi[0]), 1.0);
}

TEST(FitSarima, InformationCriteriaOrdering) {
  const std::vector<double> phi_in = {0.5};
  const auto x = simulate_arma(phi_in, {}, 0.0, 1.0, 500, 76);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_GT(m.aicc, m.aic);        // finite-sample correction adds
  EXPECT_GT(m.bic, m.aic);         // log(n) > 2 for n >= 8
  EXPECT_LT(m.log_likelihood, 0.0);
}

TEST(FitSarima, DifferencedModelExcludesMeanByDefault) {
  rrp::Rng rng(77);
  std::vector<double> x(300, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = x[t - 1] + rng.normal(0.1, 1.0);  // drifting random walk
  SarimaOrder order;
  order.p = 1;
  order.d = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_FALSE(m.has_mean);
  EXPECT_DOUBLE_EQ(m.mean, 0.0);
}

TEST(FitSarima, RejectsTooShortSeries) {
  std::vector<double> x = {1.0, 2.0, 1.5};
  SarimaOrder order;
  order.p = 2;
  EXPECT_THROW(fit_sarima(x, order), rrp::ContractViolation);
}

TEST(Forecast, Ar1ForecastDecaysTowardMean) {
  std::vector<double> phi = {0.8};
  const auto x = simulate_arma(phi, {}, 10.0, 0.5, 2000, 78);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, 50);
  ASSERT_EQ(f.size(), 50u);
  // Far-horizon forecasts approach the estimated process mean.
  EXPECT_NEAR(f.back(), m.mean, 0.2);
  // Successive forecasts contract toward the mean monotonically.
  const double d0 = std::fabs(f[0] - m.mean);
  const double d10 = std::fabs(f[10] - m.mean);
  EXPECT_LE(d10, d0 + 1e-9);
}

TEST(Forecast, RandomWalkForecastIsFlat) {
  rrp::Rng rng(79);
  std::vector<double> x(500, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = x[t - 1] + rng.normal(0.0, 1.0);
  SarimaOrder order;  // ARIMA(0,1,0): pure random walk
  order.d = 1;
  order.p = 1;        // with a near-zero AR term on the differences
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, 10);
  for (double v : f) EXPECT_NEAR(v, x.back(), 1.5);
}

TEST(Forecast, SeasonalModelRepeatsPattern) {
  // Strongly seasonal series with period 12 and seasonal AR.
  rrp::Rng rng(80);
  const std::size_t s = 12;
  std::vector<double> x(1200);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 3.0 * std::sin(2.0 * M_PI * static_cast<double>(t % s) /
                          static_cast<double>(s)) +
           rng.normal(0.0, 0.2);
  }
  SarimaOrder order;
  order.P = 1;
  order.s = s;
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, s);
  // The forecast should correlate strongly with the true seasonal shape.
  std::vector<double> truth(s);
  for (std::size_t i = 0; i < s; ++i) {
    truth[i] = 3.0 * std::sin(2.0 * M_PI *
                              static_cast<double>((x.size() + i) % s) /
                              static_cast<double>(s));
  }
  EXPECT_GT(rrp::stats::pearson_correlation(f, truth), 0.8);
}

TEST(Forecast, MeanForecastBaseline) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  const auto f = mean_forecast(x, 4);
  ASSERT_EQ(f.size(), 4u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Forecast, BeatsOrMatchesMeanBaselineInSample) {
  // On an AR(1) with strong dependence, model forecasts must beat the
  // mean predictor on one-step holdout MSE.
  std::vector<double> phi = {0.9};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 2100, 81);
  std::vector<double> train(x.begin(), x.end() - 100);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(train, order);

  std::vector<double> model_pred, mean_pred, actual;
  std::vector<double> hist = train;
  for (std::size_t i = 0; i < 100; ++i) {
    model_pred.push_back(forecast(m, hist, 1)[0]);
    mean_pred.push_back(mean_forecast(hist, 1)[0]);
    actual.push_back(x[train.size() + i]);
    hist.push_back(actual.back());
  }
  EXPECT_LT(rrp::stats::mse(actual, model_pred),
            rrp::stats::mse(actual, mean_pred));
}

}  // namespace

// -- Prediction intervals ------------------------------------------------

namespace {

using namespace rrp::ts;

TEST(PsiWeights, Ar1GeometricDecay) {
  SarimaModel m;
  m.order.p = 1;
  m.phi = {0.6};
  m.ar_full = expand_ar(m.phi, {}, 0);
  m.sigma2 = 1.0;
  const auto psi = psi_weights(m, 6);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(psi[j], std::pow(0.6, static_cast<double>(j)), 1e-12);
}

TEST(PsiWeights, Ma1Truncates) {
  SarimaModel m;
  m.order.q = 1;
  m.theta = {0.4};
  m.ma_full = expand_ma(m.theta, {}, 0);
  const auto psi = psi_weights(m, 5);
  EXPECT_DOUBLE_EQ(psi[0], 1.0);
  EXPECT_DOUBLE_EQ(psi[1], 0.4);
  for (std::size_t j = 2; j < 5; ++j) EXPECT_DOUBLE_EQ(psi[j], 0.0);
}

TEST(PsiWeights, RandomWalkWeightsAreOne) {
  SarimaModel m;
  m.order.d = 1;
  const auto psi = psi_weights(m, 5);
  for (double v : psi) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(ForecastInterval, WidthsGrowWithHorizon) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 2000, 211);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto fi = forecast_interval(m, x, 12);
  double prev = 0.0;
  for (std::size_t step = 0; step < 12; ++step) {
    const double width = fi.upper[step] - fi.lower[step];
    EXPECT_GE(width, prev - 1e-9);
    EXPECT_GT(width, 0.0);
    prev = width;
  }
}

TEST(ForecastInterval, Ar1VarianceMatchesTheory) {
  std::vector<double> phi = {0.8};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 5000, 212);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto fi = forecast_interval(m, x, 10, 0.95);
  const double z = 1.959963984540054;
  const double fitted_phi = m.phi[0];
  for (std::size_t step = 0; step < 10; ++step) {
    const double hd = static_cast<double>(step + 1);
    const double var = m.sigma2 *
                       (1.0 - std::pow(fitted_phi, 2.0 * hd)) /
                       (1.0 - fitted_phi * fitted_phi);
    const double width = fi.upper[step] - fi.lower[step];
    EXPECT_NEAR(width, 2.0 * z * std::sqrt(var), 1e-6 + 0.01 * width);
  }
}

TEST(ForecastInterval, EmpiricalCoverageNear95) {
  // Fit once, then check how often the next 3 observations fall inside
  // the 95% band across many simulated continuations.
  std::vector<double> phi = {0.6};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 3000, 213);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);

  rrp::Rng rng(214);
  int inside = 0, total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Simulate a 3-step continuation of the fitted process.
    std::vector<double> cont = x;
    const auto fi = forecast_interval(m, x, 3);
    for (int step = 0; step < 3; ++step) {
      double v = rng.normal(0.0, 1.0);
      v += m.mean + m.phi[0] * (cont.back() - m.mean);
      cont.push_back(v);
      ++total;
      if (v >= fi.lower[static_cast<std::size_t>(step)] &&
          v <= fi.upper[static_cast<std::size_t>(step)])
        ++inside;
    }
  }
  const double coverage = static_cast<double>(inside) / total;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

TEST(ForecastInterval, LevelValidation) {
  std::vector<double> phi = {0.5};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 500, 215);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_THROW(forecast_interval(m, x, 3, 0.0), rrp::ContractViolation);
  EXPECT_THROW(forecast_interval(m, x, 3, 1.0), rrp::ContractViolation);
}

// --- refit_sarima drift tiers (ISSUE 10) -------------------------------
//
// The maintenance ladder: same-character data keeps the incumbent
// verbatim; innovation variance past warm_variance_ratio buys a warm
// re-estimate; past scratch_variance_ratio a cold one.  The variance
// ratio is (residual variance on new data) / (incumbent sigma2), so
// scaling the innovation sd by c moves the ratio to ~c^2.

SarimaModel ar1_incumbent(double phi_val, std::uint64_t seed) {
  std::vector<double> phi = {phi_val};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 600, seed);
  SarimaOrder order;
  order.p = 1;
  return fit_sarima(x, order);
}

TEST(RefitSarima, SameProcessKeepsIncumbentVerbatim) {
  const auto incumbent = ar1_incumbent(0.6, 301);
  std::vector<double> phi = {0.6};
  const auto fresh = simulate_arma(phi, {}, 0.0, 1.0, 400, 302);
  const auto r = refit_sarima(incumbent, fresh);
  EXPECT_EQ(r.action, SarimaRefitAction::Kept);
  EXPECT_NEAR(r.variance_ratio, 1.0, 0.3);
  EXPECT_GE(r.ljung_box_p, 0.01);
  // Kept means KEPT: the returned model is the incumbent bit for bit.
  ASSERT_EQ(r.model.ar_full.size(), incumbent.ar_full.size());
  EXPECT_EQ(r.model.ar_full[0], incumbent.ar_full[0]);
  EXPECT_EQ(r.model.sigma2, incumbent.sigma2);
  EXPECT_EQ(r.model.mean, incumbent.mean);
}

TEST(RefitSarima, MildVarianceDriftTriggersWarmRefit) {
  const auto incumbent = ar1_incumbent(0.6, 303);
  std::vector<double> phi = {0.6};
  // sd 1.5 => variance ratio ~2.25, between warm (1.5) and scratch (3).
  const auto drifted = simulate_arma(phi, {}, 0.0, 1.5, 400, 304);
  const auto r = refit_sarima(incumbent, drifted);
  EXPECT_EQ(r.action, SarimaRefitAction::WarmRefit);
  EXPECT_GT(r.variance_ratio, 1.5);
  EXPECT_LE(r.variance_ratio, 3.0);
  // The refit absorbed the new innovation variance...
  EXPECT_NEAR(r.model.sigma2, 2.25, 0.6);
  // ...while the AR structure (unchanged in the data) is retained.
  EXPECT_NEAR(r.model.ar_full[0], 0.6, 0.15);
}

TEST(RefitSarima, SevereDriftEscalatesToScratchRefit) {
  const auto incumbent = ar1_incumbent(0.6, 305);
  std::vector<double> phi = {0.6};
  // sd 2.5 => variance ratio ~6.25, past the scratch threshold.
  const auto drifted = simulate_arma(phi, {}, 0.0, 2.5, 400, 306);
  const auto r = refit_sarima(incumbent, drifted);
  EXPECT_EQ(r.action, SarimaRefitAction::ScratchRefit);
  EXPECT_GT(r.variance_ratio, 3.0);
  EXPECT_NEAR(r.model.sigma2, 6.25, 1.6);
}

TEST(RefitSarima, RefitCostIsBoundedByDiagnosticWindow) {
  // The refit fits on the tail only: a model maintained against a huge
  // history must equal one maintained against just that tail.
  const auto incumbent = ar1_incumbent(0.5, 307);
  std::vector<double> phi = {0.5};
  const auto huge = simulate_arma(phi, {}, 0.0, 1.8, 5000, 308);
  SarimaRefitOptions opt;
  opt.diagnostic_window = 336;
  const auto from_huge = refit_sarima(incumbent, huge, opt);
  const std::span<const double> tail(huge.data() + huge.size() - 336, 336);
  const auto from_tail = refit_sarima(incumbent, tail, opt);
  EXPECT_EQ(from_huge.action, from_tail.action);
  EXPECT_EQ(from_huge.variance_ratio, from_tail.variance_ratio);
  EXPECT_EQ(from_huge.model.sigma2, from_tail.model.sigma2);
  ASSERT_EQ(from_huge.model.ar_full.size(), from_tail.model.ar_full.size());
  EXPECT_EQ(from_huge.model.ar_full[0], from_tail.model.ar_full[0]);
}

TEST(RefitSarima, RejectsWindowTooShortForDiagnostics) {
  // min_window for AR(1) with the default 24 Ljung-Box lags is 50.
  const auto incumbent = ar1_incumbent(0.6, 309);
  std::vector<double> phi = {0.6};
  const auto tiny = simulate_arma(phi, {}, 0.0, 1.0, 49, 310);
  EXPECT_THROW(refit_sarima(incumbent, tiny), rrp::ContractViolation);
}

}  // namespace

// --- Sparse CSS kernel vs the dense recursion ---------------------------
//
// css_residuals visits only the nonzero lags of the expanded
// polynomials.  The dense recursion below multiplies every lag, zero or
// not; since a skipped term only adds +-0 to the prediction, residuals,
// CSS values, forecasts and whole fits must match it bit for bit.  The
// corpus covers the paper's order, non-seasonal lags colliding with the
// seasonal cross terms (p >= s), a seasonal MA, differencing, and the
// all-zero coefficients of a cold start.

namespace {

using namespace rrp::ts;

std::vector<double> dense_css_residuals(std::span<const double> z,
                                        std::span<const double> ar_full,
                                        std::span<const double> ma_full) {
  std::vector<double> e(z.size(), 0.0);
  for (std::size_t t = 0; t < z.size(); ++t) {
    double pred = 0.0;
    for (std::size_t l = 1; l <= ar_full.size(); ++l) {
      if (t < l) break;
      pred += ar_full[l - 1] * z[t - l];
    }
    for (std::size_t l = 1; l <= ma_full.size(); ++l) {
      if (t < l) break;
      pred += ma_full[l - 1] * e[t - l];
    }
    e[t] = z[t] - pred;
  }
  return e;
}

double sum_squares_from(std::span<const double> e, std::size_t start) {
  double sse = 0.0;
  for (std::size_t t = start; t < e.size(); ++t) sse += e[t] * e[t];
  return sse;
}

std::size_t warmup_of(const SarimaOrder& order) {
  const std::size_t s1 = std::max<std::size_t>(order.s, 1);
  return std::max(order.p + order.P * s1, order.q + order.Q * s1);
}

/// The dense forecast recursion, differencing inversion included.
std::vector<double> dense_forecast(const SarimaModel& model,
                                   std::span<const double> x, std::size_t h) {
  const SarimaOrder& order = model.order;
  std::vector<std::vector<double>> layers;
  layers.emplace_back(x.begin(), x.end());
  for (std::size_t i = 0; i < order.d; ++i)
    layers.push_back(difference(layers.back(), 1));
  for (std::size_t i = 0; i < order.D; ++i)
    layers.push_back(difference(layers.back(), order.s));
  std::vector<double> z = layers.back();
  for (double& v : z) v -= model.mean;
  std::vector<double> e = dense_css_residuals(z, model.ar_full, model.ma_full);
  for (std::size_t step = 0; step < h; ++step) {
    const std::size_t t = z.size();
    double pred = 0.0;
    for (std::size_t l = 1; l <= model.ar_full.size(); ++l) {
      if (t < l) break;
      pred += model.ar_full[l - 1] * z[t - l];
    }
    for (std::size_t l = 1; l <= model.ma_full.size(); ++l) {
      if (t < l) break;
      pred += model.ma_full[l - 1] * e[t - l];
    }
    z.push_back(pred);
    e.push_back(0.0);
  }
  std::vector<double> cur(z.end() - static_cast<std::ptrdiff_t>(h), z.end());
  for (double& v : cur) v += model.mean;
  for (std::size_t i = 0; i < order.D; ++i)
    cur = undifference(layers[layers.size() - 2 - i], cur, order.s);
  for (std::size_t i = 0; i < order.d; ++i)
    cur = undifference(layers[order.d - 1 - i], cur, 1);
  return cur;
}

/// The fitter's unconstrained-to-coefficient map: tanh partials (kept
/// strictly inside (-1, 1)) through Durbin-Levinson.
std::vector<double> constrained(std::span<const double> raw, bool negate) {
  std::vector<double> partial(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    partial[i] = std::clamp(std::tanh(raw[i]), -1.0 + 1e-9, 1.0 - 1e-9);
  std::vector<double> c = pacf_to_ar(partial);
  if (negate)
    for (double& v : c) v = -v;
  return c;
}

/// A fit whose Nelder-Mead objective runs the dense recursion: the same
/// parameter layout, start and options as fit_sarima, so an identical
/// objective yields the identical optimum.
NelderMeadResult dense_fit(std::span<const double> x,
                           const SarimaOrder& order, bool include_mean,
                           std::vector<double> start,
                           const NelderMeadOptions& nm) {
  const std::vector<double> w = apply_differencing(x, order);
  const std::size_t warmup = warmup_of(order);
  auto css_of = [&](const std::vector<double>& u) {
    std::size_t k = 0;
    auto take = [&](std::size_t n, bool negate) {
      auto c = constrained({u.data() + k, n}, negate);
      k += n;
      return c;
    };
    const auto phi = take(order.p, false);
    const auto theta = take(order.q, true);
    const auto sphi = take(order.P, false);
    const auto stheta = take(order.Q, true);
    const double mean = include_mean ? u[k] : 0.0;
    std::vector<double> z = w;
    for (double& v : z) v -= mean;
    const auto e = dense_css_residuals(z, expand_ar(phi, sphi, order.s),
                                       expand_ma(theta, stheta, order.s));
    return sum_squares_from(e, warmup);
  };
  return nelder_mead(css_of, std::move(start), nm);
}

/// The optimiser vector that maps back to a model's coefficients.
std::vector<double> raw_of(const SarimaModel& m) {
  std::vector<double> raw;
  auto append = [&raw](std::vector<double> c, bool negate) {
    if (negate)
      for (double& v : c) v = -v;
    for (double p : ar_to_pacf(c)) raw.push_back(std::atanh(p));
  };
  append(m.phi, false);
  append(m.theta, true);
  append(m.sphi, false);
  append(m.stheta, true);
  if (m.has_mean) raw.push_back(m.mean);
  return raw;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_bits(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i]))
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

struct CssCase {
  const char* name;
  SarimaOrder order;
  bool zero_coefficients;  ///< a cold start's all-zero parameters
};

SarimaOrder make_order(std::size_t p, std::size_t d, std::size_t q,
                       std::size_t P, std::size_t D, std::size_t Q,
                       std::size_t s) {
  SarimaOrder o;
  o.p = p, o.d = d, o.q = q, o.P = P, o.D = D, o.Q = Q, o.s = s;
  return o;
}

std::vector<CssCase> css_corpus() {
  return {
      {"paper (2,0,1)(2,0,0)_24", make_order(2, 0, 1, 2, 0, 0, 24), false},
      {"colliding (25,0,0)(1,0,0)_24", make_order(25, 0, 0, 1, 0, 0, 24),
       false},
      {"seasonal MA (1,0,1)(1,0,2)_12", make_order(1, 0, 1, 1, 0, 2, 12),
       false},
      {"differenced (1,1,1)(1,1,0)_24", make_order(1, 1, 1, 1, 1, 0, 24),
       false},
      {"cold start (2,0,1)(2,0,0)_24", make_order(2, 0, 1, 2, 0, 0, 24),
       true},
  };
}

/// A price-like hourly series: daily cycle, AR noise, a slow drift.
std::vector<double> price_series(std::size_t n, std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n);
  double noise = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    noise = 0.6 * noise + rng.normal(0.0, 0.004);
    x[t] = 0.06 + 0.003 * static_cast<double>(t) / static_cast<double>(n) +
           0.01 * std::sin(2.0 * M_PI * static_cast<double>(t % 24) / 24.0) +
           noise;
  }
  return x;
}

/// A model of the case's order with random stationary/invertible
/// coefficients (or all zeros), populated the way fit_sarima does.
SarimaModel random_model(const CssCase& c, std::uint64_t seed) {
  rrp::Rng rng(seed);
  auto draw = [&](std::size_t n, bool negate) {
    std::vector<double> raw(n);
    for (double& v : raw) v = c.zero_coefficients ? 0.0 : rng.uniform(-1, 1);
    return constrained(raw, negate);
  };
  SarimaModel m;
  m.order = c.order;
  m.phi = draw(c.order.p, false);
  m.theta = draw(c.order.q, true);
  m.sphi = draw(c.order.P, false);
  m.stheta = draw(c.order.Q, true);
  m.ar_full = expand_ar(m.phi, m.sphi, c.order.s);
  m.ma_full = expand_ma(m.theta, m.stheta, c.order.s);
  m.has_mean = c.order.d + c.order.D == 0;
  m.mean = m.has_mean ? 0.06 : 0.0;
  m.sigma2 = 1e-5;
  return m;
}

TEST(SparseCss, TermsAreTheNonzeroLagsInAscendingOrder) {
  // (1 - 0.5B - 0.2B^2)(1 - 0.4B^4) = 1 - 0.5B - 0.2B^2 - 0.4B^4
  // + 0.2B^5 + 0.08B^6: lag 3 is structurally zero.
  const auto full = expand_ar(std::vector<double>{0.5, 0.2},
                              std::vector<double>{0.4}, 4);
  std::vector<LagTerm> terms;
  nonzero_terms(full, terms);
  std::vector<std::size_t> lags;
  for (const LagTerm& t : terms) lags.push_back(t.lag);
  EXPECT_EQ(lags, (std::vector<std::size_t>{1, 2, 4, 5, 6}));
  for (const LagTerm& t : terms) EXPECT_EQ(t.coef, full[t.lag - 1]);
  nonzero_terms(std::vector<double>(5, 0.0), terms);
  EXPECT_TRUE(terms.empty());
  // The paper's order: 8 of its 50 expanded AR lags are nonzero.
  const auto paper = random_model(css_corpus()[0], 11);
  ASSERT_EQ(paper.ar_full.size(), 50u);
  nonzero_terms(paper.ar_full, terms);
  lags.clear();
  for (const LagTerm& t : terms) lags.push_back(t.lag);
  EXPECT_EQ(lags, (std::vector<std::size_t>{1, 2, 24, 25, 26, 48, 49, 50}));
}

TEST(SparseCss, ResidualsAndCssMatchDenseRecursionBitForBit) {
  const auto x = price_series(24 * 21, 401);
  std::uint64_t seed = 500;
  for (const CssCase& c : css_corpus()) {
    SCOPED_TRACE(c.name);
    for (int draw = 0; draw < 4; ++draw) {
      const SarimaModel m = random_model(c, ++seed);
      std::vector<double> z = apply_differencing(x, c.order);
      for (double& v : z) v -= m.mean;
      const std::size_t warmup = warmup_of(c.order);
      const auto dense = dense_css_residuals(z, m.ar_full, m.ma_full);
      std::vector<LagTerm> ar, ma;
      nonzero_terms(m.ar_full, ar);
      nonzero_terms(m.ma_full, ma);
      std::vector<double> e = {1.0, 2.0};  // stale contents are replaced
      const double sse = css_residuals(z, ar, ma, warmup, e);
      EXPECT_TRUE(same_bits(e, dense));
      EXPECT_TRUE(same_bits(sse, sum_squares_from(dense, warmup)));
    }
  }
}

TEST(SparseCss, ForecastMatchesDenseRecursionBitForBit) {
  const auto x = price_series(24 * 21, 402);
  std::uint64_t seed = 600;
  for (const CssCase& c : css_corpus()) {
    SCOPED_TRACE(c.name);
    const SarimaModel m = random_model(c, ++seed);
    for (std::size_t h : {1u, 24u, 72u})
      EXPECT_TRUE(same_bits(forecast(m, x, h), dense_forecast(m, x, h)));
  }
}

void expect_same_model(const SarimaModel& got, const SarimaModel& want) {
  EXPECT_TRUE(same_bits(got.phi, want.phi));
  EXPECT_TRUE(same_bits(got.theta, want.theta));
  EXPECT_TRUE(same_bits(got.sphi, want.sphi));
  EXPECT_TRUE(same_bits(got.stheta, want.stheta));
  EXPECT_TRUE(same_bits(got.ar_full, want.ar_full));
  EXPECT_TRUE(same_bits(got.ma_full, want.ma_full));
  EXPECT_TRUE(same_bits(got.mean, want.mean));
  EXPECT_TRUE(same_bits(got.css, want.css));
  EXPECT_TRUE(same_bits(got.sigma2, want.sigma2));
}

/// The model a dense-objective fit lands on.
SarimaModel dense_model(std::span<const double> x, const SarimaOrder& order,
                        bool include_mean, std::vector<double> start,
                        const NelderMeadOptions& nm) {
  const auto opt = dense_fit(x, order, include_mean, std::move(start), nm);
  SarimaModel m;
  m.order = order;
  std::size_t k = 0;
  auto take = [&](std::size_t n, bool negate) {
    auto c = constrained({opt.x.data() + k, n}, negate);
    k += n;
    return c;
  };
  m.phi = take(order.p, false);
  m.theta = take(order.q, true);
  m.sphi = take(order.P, false);
  m.stheta = take(order.Q, true);
  m.ar_full = expand_ar(m.phi, m.sphi, order.s);
  m.ma_full = expand_ma(m.theta, m.stheta, order.s);
  m.has_mean = include_mean;
  m.mean = include_mean ? opt.x[k] : 0.0;
  m.css = opt.value;
  const std::size_t n_eff = apply_differencing(x, order).size() -
                            warmup_of(order);
  m.sigma2 = std::max(m.css / static_cast<double>(n_eff), 1e-300);
  return m;
}

TEST(SparseCss, FitMatchesDenseObjectiveFitBitForBit) {
  // Capped so the five cold fits stay fast; the cap binds both sides.
  SarimaFitOptions options;
  options.optimizer.max_evaluations = 1500;
  const auto x = price_series(24 * 14, 403);
  for (const CssCase& c : css_corpus()) {
    if (c.zero_coefficients) continue;  // every cold fit starts at zero
    SCOPED_TRACE(c.name);
    const SarimaModel got = fit_sarima(x, c.order, options);
    const bool include_mean = c.order.d + c.order.D == 0;
    std::vector<double> start(c.order.num_coefficients(), 0.0);
    if (include_mean)
      start.push_back(rrp::stats::mean(apply_differencing(x, c.order)));
    expect_same_model(got, dense_model(x, c.order, include_mean, start,
                                       options.optimizer));
  }
}

TEST(SparseCss, RefitMatchesDenseDiagnosticsAndWarmFitBitForBit) {
  SarimaFitOptions options;
  options.optimizer.max_evaluations = 1500;
  const SarimaOrder order = css_corpus()[0].order;
  const auto history = price_series(24 * 14, 404);
  const SarimaModel incumbent = fit_sarima(history, order, options);
  // Louder noise on fresh data pushes the variance ratio into the warm
  // tier, so both the diagnostic pass and the warm fit run.
  auto fresh = price_series(24 * 14, 405);
  for (std::size_t t = 0; t < fresh.size(); ++t)
    fresh[t] += 0.006 * std::sin(1.7 * static_cast<double>(t));
  SarimaRefitOptions refit;
  refit.scratch = options;
  const SarimaRefitResult r = refit_sarima(incumbent, fresh, refit);

  std::vector<double> z = apply_differencing(fresh, order);
  for (double& v : z) v -= incumbent.mean;
  const std::size_t warmup = warmup_of(order);
  const auto e = dense_css_residuals(z, incumbent.ar_full, incumbent.ma_full);
  const double n_eff = static_cast<double>(e.size() - warmup);
  EXPECT_TRUE(same_bits(
      r.variance_ratio,
      (sum_squares_from(e, warmup) / n_eff) / incumbent.sigma2));
  ASSERT_EQ(r.action, SarimaRefitAction::WarmRefit)
      << "variance ratio " << r.variance_ratio;
  NelderMeadOptions nm = options.optimizer;
  nm.max_evaluations = refit.warm_max_evaluations;
  expect_same_model(r.model, dense_model(fresh, order, true,
                                         raw_of(incumbent), nm));
}

}  // namespace
