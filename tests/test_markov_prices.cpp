#include "core/markov_prices.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/rolling_horizon.hpp"
#include "core/srrp_dp.hpp"
#include "market/trace_generator.hpp"

namespace {

using namespace rrp::core;

std::vector<double> persistent_series(std::size_t n, std::uint64_t seed) {
  // Strongly autocorrelated positive series.
  rrp::Rng rng(seed);
  std::vector<double> x(n);
  double level = 0.06;
  for (auto& v : x) {
    level = 0.06 + 0.9 * (level - 0.06) + rng.normal(0.0, 0.002);
    v = std::max(level, 0.01);
  }
  return x;
}

TEST(MarkovPrices, FitBasics) {
  const auto x = persistent_series(2000, 301);
  const auto model = MarkovPriceModel::fit(x, 6);
  EXPECT_GE(model.num_states(), 2u);
  EXPECT_LE(model.num_states(), 6u);
  // Representatives ascend.
  for (std::size_t s = 1; s < model.num_states(); ++s)
    EXPECT_GT(model.state_prices()[s], model.state_prices()[s - 1]);
  // Rows are distributions.
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    double total = 0.0;
    for (const auto& p : model.conditional_support(s)) total += p.prob;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MarkovPrices, PersistenceIsLearned) {
  // On a highly persistent series, staying near the current bucket must
  // be much more likely than jumping across the distribution.
  const auto x = persistent_series(20000, 302);
  const auto model = MarkovPriceModel::fit(x, 5);
  const std::size_t lo = 0, hi = model.num_states() - 1;
  const auto from_lo = model.conditional_support(lo);
  const auto from_hi = model.conditional_support(hi);
  EXPECT_GT(from_lo[lo].prob, from_lo[hi].prob);
  EXPECT_GT(from_hi[hi].prob, from_hi[lo].prob);
}

TEST(MarkovPrices, StateOfClampsAndBuckets) {
  const auto x = persistent_series(2000, 303);
  const auto model = MarkovPriceModel::fit(x, 4);
  EXPECT_EQ(model.state_of(1e-6), 0u);
  EXPECT_EQ(model.state_of(1e6), model.num_states() - 1);
  // Representatives map into their own buckets.
  for (std::size_t s = 0; s < model.num_states(); ++s)
    EXPECT_EQ(model.state_of(model.state_prices()[s]), s);
}

TEST(MarkovPrices, ConditionalTruncationKeepsMassAndOob) {
  const auto x = persistent_series(2000, 304);
  const auto model = MarkovPriceModel::fit(x, 6);
  const double bid = model.state_prices()[1];  // low bid
  const auto pts = model.conditional_truncated(0, bid, 0.2, 4);
  double total = 0.0;
  bool has_oob = false;
  for (const auto& p : pts) {
    total += p.prob;
    has_oob |= p.out_of_bid;
    if (!p.out_of_bid) {
      EXPECT_LE(p.price, bid + 1e-12);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_TRUE(has_oob);
  EXPECT_LE(pts.size(), 4u);
}

TEST(MarkovPrices, BuildTreeConditionsOnParent) {
  const auto x = persistent_series(20000, 305);
  const auto model = MarkovPriceModel::fit(x, 5);
  std::vector<double> bids(3, 10.0);  // bid above everything: no OOB
  std::vector<std::size_t> widths = {5, 5, 5};
  const auto tree = model.build_tree(x.back(), bids, 0.2, widths);
  EXPECT_EQ(tree.num_stages(), 3u);
  EXPECT_NEAR(tree.stage_probability_mass(3), 1.0, 1e-9);
  // Different stage-2 parents must induce different branch
  // distributions (conditionality), unlike the iid tree.
  const auto& s1 = tree.stage_vertices(1);
  ASSERT_GE(s1.size(), 2u);
  const auto c_first = tree.children(s1.front());
  const auto c_last = tree.children(s1.back());
  bool differs = false;
  for (std::size_t k = 0; k < std::min(c_first.size(), c_last.size()); ++k) {
    if (std::fabs(tree.vertex(c_first[k]).branch_prob -
                  tree.vertex(c_last[k]).branch_prob) > 1e-6)
      differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(MarkovPrices, TreeFeedsTheDpSolver) {
  const auto x = persistent_series(5000, 306);
  const auto model = MarkovPriceModel::fit(x, 5);
  std::vector<double> bids(4, 0.061);
  std::vector<std::size_t> widths = {3, 2, 2, 1};
  SrrpInstance inst;
  rrp::Rng rng(307);
  inst.demand = generate_demand(4, DemandConfig{}, rng);
  inst.tree = model.build_tree(0.06, bids, 0.2, widths);
  const auto dp = solve_srrp_tree_dp(inst);
  EXPECT_GT(dp.expected_cost, 0.0);
  const auto agg = solve_srrp_milp(inst);
  ASSERT_TRUE(agg.feasible());
  EXPECT_NEAR(dp.expected_cost, agg.expected_cost, 1e-6);
}

TEST(MarkovPrices, PolicyRunsEndToEnd) {
  const auto trace =
      rrp::market::generate_trace(rrp::market::VmClass::C1Medium, 310);
  const auto hourly = trace.hourly();
  SimulationInputs in;
  in.vm = rrp::market::VmClass::C1Medium;
  in.history.assign(hourly.begin(), hourly.begin() + 24 * 60);
  in.actual_spot.assign(hourly.begin() + 24 * 60,
                        hourly.begin() + 24 * 60 + 24);
  rrp::Rng rng(311);
  in.demand = generate_demand(24, DemandConfig{}, rng);
  const auto result = simulate_policy(in, sto_markov_policy());
  EXPECT_GT(result.total_cost(), 0.0);
  EXPECT_GE(result.total_cost(), ideal_case_cost(in) - 1e-6);
  double store = in.initial_storage;
  for (std::size_t t = 0; t < in.horizon(); ++t) {
    store += result.slots[t].alpha - in.demand[t];
    EXPECT_GT(store, -1e-6);
    store = std::max(store, 0.0);
  }
}

TEST(MarkovPrices, FitValidation) {
  std::vector<double> tiny(4, 0.05);
  EXPECT_THROW(MarkovPriceModel::fit(tiny, 4), rrp::ContractViolation);
  const auto x = persistent_series(100, 308);
  EXPECT_THROW(MarkovPriceModel::fit(x, 1), rrp::ContractViolation);
}

}  // namespace
