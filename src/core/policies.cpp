#include "core/policies.hpp"

#include "common/error.hpp"

namespace rrp::core {

const char* to_string(ReplanMode mode) {
  switch (mode) {
    case ReplanMode::Rebuild:
      return "rebuild";
    case ReplanMode::Incremental:
      return "incremental";
  }
  return "unknown";
}

ts::SarimaRefitOptions default_policy_sarima_refit() {
  ts::SarimaRefitOptions refit;
  // The evaluation budget every policy fit has always used.
  refit.scratch.optimizer.max_evaluations = 4000;
  return refit;
}

void PolicyConfig::validate() const {
  RRP_EXPECTS(lookahead >= 1);
  // Rejects negatives and NaN; +infinity is an explicit "no limit".
  RRP_EXPECTS(replan_time_limit >= 0.0);
  RRP_EXPECTS(replan_every >= 1);
  RRP_EXPECTS(replan_every <= lookahead);
  RRP_EXPECTS(distribution_support >= 2);
  RRP_EXPECTS(fit_window >= 48);
  RRP_EXPECTS(forecast_window >= 48);
  if (planner == PlannerKind::Srrp) {
    RRP_EXPECTS(!stage_widths.empty());
    for (std::size_t w : stage_widths) RRP_EXPECTS(w >= 1);
    // Stage 1 needs >= 2 states whenever an out-of-bid point exists.
    RRP_EXPECTS(stage_widths.front() >= 2);
  }
  if (bids == BidStrategy::FixedValue) RRP_EXPECTS(fixed_bid > 0.0);
  if (bids == BidStrategy::OracleDeviated)
    RRP_EXPECTS(bid_deviation > -1.0);
}

namespace {

PolicyConfig base_drrp(std::string name, BidStrategy bids) {
  PolicyConfig cfg;
  cfg.name = std::move(name);
  cfg.planner = PlannerKind::Drrp;
  cfg.bids = bids;
  cfg.lookahead = 24;  // paper: DRRP plans over 24 hours
  return cfg;
}

PolicyConfig base_srrp(std::string name, BidStrategy bids) {
  PolicyConfig cfg;
  cfg.name = std::move(name);
  cfg.planner = PlannerKind::Srrp;
  cfg.bids = bids;
  cfg.lookahead = 6;  // paper: SRRP plans over 6 hours
  cfg.stage_widths = {4, 3, 2, 1, 1, 1};
  return cfg;
}

}  // namespace

PolicyConfig no_plan_policy() {
  PolicyConfig cfg;
  cfg.name = "no-plan";
  cfg.planner = PlannerKind::NoPlan;
  cfg.bids = BidStrategy::OnDemandAlways;
  cfg.lookahead = 1;
  return cfg;
}

PolicyConfig on_demand_policy() {
  return base_drrp("on-demand", BidStrategy::OnDemandAlways);
}

PolicyConfig det_predict_policy() {
  return base_drrp("det-predict", BidStrategy::Predicted);
}

PolicyConfig sto_predict_policy() {
  return base_srrp("sto-predict", BidStrategy::Predicted);
}

PolicyConfig det_exp_mean_policy() {
  return base_drrp("det-exp-mean", BidStrategy::ExpectedMean);
}

PolicyConfig sto_exp_mean_policy() {
  return base_srrp("sto-exp-mean", BidStrategy::ExpectedMean);
}

PolicyConfig oracle_policy() {
  return base_drrp("oracle", BidStrategy::Oracle);
}

PolicyConfig sto_markov_policy() {
  PolicyConfig cfg = base_srrp("sto-markov", BidStrategy::ExpectedMean);
  cfg.markov_tree = true;
  return cfg;
}

std::vector<PolicyConfig> figure12a_policies() {
  return {on_demand_policy(), det_predict_policy(), sto_predict_policy(),
          det_exp_mean_policy(), sto_exp_mean_policy()};
}

std::vector<PolicyConfig> interruption_policies() {
  PolicyConfig ww = det_exp_mean_policy();
  ww.name = "wagner-whitin";
  ww.replan_every = 6;  // committed schedule rides through revocations
  return {no_plan_policy(), on_demand_policy(), det_exp_mean_policy(),
          std::move(ww), sto_exp_mean_policy()};
}

}  // namespace rrp::core
