#include "timeseries/auto_arima.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "obs/obs.hpp"
#include "timeseries/acf.hpp"
#include "timeseries/series.hpp"

namespace rrp::ts {

std::size_t choose_d(std::span<const double> x) {
  RRP_EXPECTS(x.size() >= 8);
  // Difference while the series looks near-integrated (lag-1 sample
  // autocorrelation close to 1).  A plain variance-reduction rule would
  // over-difference any strongly autocorrelated stationary series
  // (differencing reduces variance whenever rho_1 > 1/2).
  constexpr double kUnitRootAcf = 0.9;
  std::vector<double> cur(x.begin(), x.end());
  std::size_t d = 0;
  while (d < 2 && cur.size() >= 4) {
    double r1;
    try {
      r1 = acf(cur, 1)[1];
    } catch (const rrp::Error&) {
      break;  // constant after differencing: definitely stop
    }
    if (r1 < kUnitRootAcf) break;
    cur = difference(cur, 1);
    ++d;
  }
  return d;
}

std::size_t choose_D(std::span<const double> x, std::size_t s) {
  RRP_EXPECTS(s >= 2);
  if (x.size() < 3 * s) return 0;
  const auto r = acf(x, s);
  return std::fabs(r[s]) > 0.9 ? 1 : 0;
}

AutoArimaResult auto_arima(std::span<const double> x,
                           const AutoArimaOptions& options) {
  const std::size_t s = options.seasonal_period;
  const std::size_t d =
      options.d >= 0 ? static_cast<std::size_t>(options.d) : choose_d(x);
  const std::size_t D =
      s >= 2 ? (options.D >= 0 ? static_cast<std::size_t>(options.D)
                               : choose_D(x, s))
             : 0;

  std::vector<SarimaOrder> grid;
  const std::size_t maxP = s >= 2 ? options.max_P : 0;
  const std::size_t maxQ = s >= 2 ? options.max_Q : 0;
  for (std::size_t p = 0; p <= options.max_p; ++p) {
    for (std::size_t q = 0; q <= options.max_q; ++q) {
      for (std::size_t P = 0; P <= maxP; ++P) {
        for (std::size_t Q = 0; Q <= maxQ; ++Q) {
          if (p + q + P + Q == 0) continue;
          if (p + q + P + Q > options.max_total_order) continue;
          SarimaOrder order;
          order.p = p;
          order.d = d;
          order.q = q;
          order.P = P;
          order.D = D;
          order.Q = Q;
          order.s = s;
          grid.push_back(order);
        }
      }
    }
  }
  RRP_EXPECTS(!grid.empty());
  RRP_TRACE_SPAN("ts.auto_arima");
  RRP_TRACE_ARG("candidates", grid.size());
  RRP_COUNTER_ADD("rrp.ts.auto_arima_searches", 1);
  RRP_COUNTER_ADD("rrp.ts.auto_arima_candidates", grid.size());

  std::vector<double> scores(grid.size(),
                             std::numeric_limits<double>::infinity());
  std::vector<SarimaModel> models(grid.size());
  Mutex mu;
  std::size_t evaluated = 0;
  global_pool().parallel_for(grid.size(), [&](std::size_t i) {
    SarimaModel m;
    try {
      m = fit_sarima(x, grid[i], options.fit);
    } catch (const rrp::Error&) {
      return;  // not enough data for this order: skip it
    }
    double score = 0.0;
    switch (options.criterion) {
      case AutoArimaOptions::Criterion::Aic: score = m.aic; break;
      case AutoArimaOptions::Criterion::Aicc: score = m.aicc; break;
      case AutoArimaOptions::Criterion::Bic: score = m.bic; break;
    }
    MutexLock lock(mu);
    scores[i] = score;
    models[i] = std::move(m);
    ++evaluated;
  });

  std::size_t best = grid.size();
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (scores[i] < best_score) {
      best_score = scores[i];
      best = i;
    }
  }
  if (best == grid.size())
    throw NumericalError("auto_arima: no candidate order could be fitted");

  AutoArimaResult result;
  result.model = std::move(models[best]);
  result.models_evaluated = evaluated;
  return result;
}

}  // namespace rrp::ts
