// Automatic SARIMA order selection, mirroring R's forecast::auto.arima
// as used by the paper: a grid search over (p,q)x(P,Q) with the
// differencing orders chosen by simple stationarity heuristics, scored
// by corrected AIC.  The grid is evaluated in parallel.
#pragma once

#include <span>

#include "timeseries/arima.hpp"

namespace rrp::ts {

struct AutoArimaOptions {
  std::size_t max_p = 3, max_q = 3;
  std::size_t max_P = 2, max_Q = 2;
  std::size_t seasonal_period = 0;  ///< 0 disables the seasonal part
  /// Differencing orders; -1 selects automatically via the heuristics.
  int d = -1;
  int D = -1;
  /// Cap on p+q+P+Q, pruning the expensive corner of the grid.
  std::size_t max_total_order = 7;
  enum class Criterion { Aic, Aicc, Bic };
  Criterion criterion = Criterion::Aicc;
  SarimaFitOptions fit;
};

struct AutoArimaResult {
  SarimaModel model;
  std::size_t models_evaluated = 0;
};

/// Chooses the plain differencing order in {0,1,2} by the classic
/// variance heuristic: difference while it reduces the sample variance.
std::size_t choose_d(std::span<const double> x);

/// Chooses the seasonal differencing order in {0,1}: difference when
/// the lag-s autocorrelation exceeds 0.9 (strong stable seasonality).
std::size_t choose_D(std::span<const double> x, std::size_t s);

/// Fits every order in the grid and returns the best model by the
/// selected criterion.
AutoArimaResult auto_arima(std::span<const double> x,
                           const AutoArimaOptions& options = {});

}  // namespace rrp::ts
