// Validation of the exact scenario-tree dynamic program against the
// MILP deterministic equivalent, plus structural checks of its plans.
#include "core/srrp_dp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/wagner_whitin.hpp"

namespace {

using namespace rrp::core;

SrrpInstance random_tree_instance(std::uint64_t seed, std::size_t stages,
                                  std::size_t branch, double eps) {
  rrp::Rng rng(seed);
  SrrpInstance inst;
  inst.demand = generate_demand(stages, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  for (std::size_t s = 0; s < stages; ++s) {
    std::vector<PricePoint> pts;
    double remaining = 1.0;
    for (std::size_t b = 0; b < branch; ++b) {
      const double prob =
          b + 1 == branch ? remaining : remaining * rng.uniform(0.3, 0.7);
      remaining -= b + 1 == branch ? 0.0 : prob;
      pts.push_back(PricePoint{rng.uniform(0.02, 0.6), prob, false});
    }
    // Sort ascending by price (ScenarioTree does not require it but the
    // distribution convention keeps things tidy); prices must differ.
    for (std::size_t b = 1; b < pts.size(); ++b)
      pts[b].price += 1e-4 * static_cast<double>(b);
    supports.push_back(std::move(pts));
  }
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = eps;
  return inst;
}

class TreeDpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TreeDpAgreement, MatchesAggregatedMilp) {
  const double eps = GetParam() % 3 == 0 ? 0.0 : 0.1 * (GetParam() % 5);
  const auto inst = random_tree_instance(
      4000 + static_cast<std::uint64_t>(GetParam()), 3, 2, eps);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const SrrpPolicy agg = solve_srrp_milp(inst);
  ASSERT_TRUE(agg.feasible());
  EXPECT_NEAR(dp.expected_cost, agg.expected_cost,
              1e-6 * (1.0 + agg.expected_cost));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeDpAgreement, ::testing::Range(0, 12));

TEST(TreeDp, MatchesStrengthenedMilpOnWiderTree) {
  // The MILP is strengthened by its root (l,S) cuts, one chain per
  // scenario path.
  const auto inst = random_tree_instance(4444, 4, 2, 0.25);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const SrrpPolicy milp = solve_srrp_milp(inst);
  ASSERT_TRUE(milp.feasible());
  EXPECT_NEAR(dp.expected_cost, milp.expected_cost,
              1e-5 * (1.0 + milp.expected_cost));
}

TEST(TreeDp, PlanSatisfiesTreeBalanceAndForcing) {
  const auto inst = random_tree_instance(4555, 4, 3, 0.2);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  for (std::size_t leaf : inst.tree.leaves()) {
    double store = inst.initial_storage;
    for (std::size_t v : inst.tree.path_from_root(leaf)) {
      const std::size_t slot = inst.tree.vertex(v).stage - 1;
      if (!dp.chi[v]) {
        EXPECT_NEAR(dp.alpha[v], 0.0, 1e-9);
      }
      store += dp.alpha[v] - inst.demand[slot];
      EXPECT_GT(store, -1e-7);
      store = std::max(store, 0.0);
      EXPECT_NEAR(store, dp.beta[v], 1e-7);
    }
  }
}

TEST(TreeDp, ExpectedCostMatchesManualAccounting) {
  const auto inst = random_tree_instance(4666, 3, 2, 0.0);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  double expected = 0.0;
  for (std::size_t v = 1; v < inst.tree.num_vertices(); ++v) {
    const auto& vert = inst.tree.vertex(v);
    const std::size_t slot = vert.stage - 1;
    expected += vert.path_prob *
                (inst.costs.generation_cost(dp.alpha[v], slot) +
                 inst.costs.holding(slot) * dp.beta[v] +
                 inst.costs.delivery_cost(inst.demand[slot], slot) +
                 (dp.chi[v] ? vert.price : 0.0));
  }
  EXPECT_NEAR(dp.expected_cost, expected, 1e-8);
}

TEST(TreeDp, ChainTreeEqualsWagnerWhitin) {
  // A tree with branching factor 1 is a deterministic chain: the tree
  // DP must coincide with the Wagner-Whitin DP on the induced DRRP.
  rrp::Rng rng(4777);
  const std::size_t T = 8;
  SrrpInstance inst;
  inst.demand = generate_demand(T, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  std::vector<double> prices;
  for (std::size_t t = 0; t < T; ++t) {
    prices.push_back(rng.uniform(0.05, 0.8));
    supports.push_back({PricePoint{prices.back(), 1.0, false}});
  }
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = 0.3;
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);

  DrrpInstance chain;
  chain.demand = inst.demand;
  chain.compute_price = prices;
  chain.initial_storage = 0.3;
  const RentalPlan ww = solve_drrp_wagner_whitin(chain);
  EXPECT_NEAR(dp.expected_cost, ww.cost.total(), 1e-8);
}

TEST(TreeDp, AdaptsProductionToBranchPrices) {
  // Cheap-vs-expensive stage-1 states: the DP must rent in the cheap
  // state and avoid the expensive one when storage suffices.
  SrrpInstance inst;
  inst.demand = {0.4, 0.4};
  std::vector<std::vector<PricePoint>> supports = {
      {PricePoint{0.02, 0.5, false}, PricePoint{1.5, 0.5, false}},
      {PricePoint{0.4, 1.0, false}}};
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = 0.4;
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const auto& s1 = inst.tree.stage_vertices(1);
  EXPECT_EQ(dp.chi[s1[0]], 1);
  EXPECT_EQ(dp.chi[s1[1]], 0);
}

TEST(TreeDp, InventorySharingAcrossBranchesBeatsNaivePairwiseFl) {
  // The scenario that broke the naive pairwise facility location: one
  // unit of inventory produced up front serves slot-2 demand in BOTH
  // mutually exclusive branches; a formulation forcing per-branch
  // production would pay twice.  The DP must find the sharing plan.
  SrrpInstance inst;
  inst.demand = {0.0, 1.0};
  std::vector<std::vector<PricePoint>> supports = {
      {PricePoint{0.05, 0.5, false}, PricePoint{0.0501, 0.5, false}},
      {PricePoint{5.0, 1.0, false}}};  // slot 2 is prohibitive
  inst.tree = ScenarioTree::build(supports);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  // Production happens at stage 1 (price ~0.05) in both states --
  // total expected compute ~0.05, never ~5.
  EXPECT_LT(dp.expected_cost, 1.0);
  const SrrpPolicy agg = solve_srrp_milp(inst);
  EXPECT_NEAR(dp.expected_cost, agg.expected_cost, 1e-6);
}

TEST(TreeDp, RejectsCapacitatedInstances) {
  auto inst = random_tree_instance(4888, 2, 2, 0.0);
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.assign(2, 1.0);
  EXPECT_THROW(solve_srrp_tree_dp(inst), rrp::InvalidArgument);
}

TEST(TreeDpDeadline, ExpiredDeadlineThrows) {
  const auto inst = random_tree_instance(4901, 3, 2, 0.0);
  rrp::common::FakeClock clock(100.0);
  const auto d = rrp::common::Deadline::after(0.0, clock);
  EXPECT_THROW(solve_srrp_tree_dp(inst, d), rrp::TimeLimitExceeded);
}

TEST(TreeDpDeadline, GenerousDeadlineMatchesUnlimited) {
  const auto inst = random_tree_instance(4902, 3, 2, 0.2);
  rrp::common::FakeClock clock;
  const auto d = rrp::common::Deadline::after(1e9, clock);
  const SrrpPolicy bounded = solve_srrp_tree_dp(inst, d);
  const SrrpPolicy unbounded = solve_srrp_tree_dp(inst);
  EXPECT_NEAR(bounded.expected_cost, unbounded.expected_cost, 1e-12);
}

}  // namespace
