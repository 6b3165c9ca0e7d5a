#include "core/srrp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"

namespace {

using namespace rrp::core;

std::vector<PricePoint> support(
    std::initializer_list<std::pair<double, double>> price_probs) {
  std::vector<PricePoint> out;
  for (const auto& [price, prob] : price_probs)
    out.push_back(PricePoint{price, prob, false});
  return out;
}

SrrpInstance make_instance(std::vector<double> demand,
                           std::vector<std::vector<PricePoint>> supports) {
  SrrpInstance inst;
  inst.demand = std::move(demand);
  inst.tree = ScenarioTree::build(supports);
  return inst;
}

TEST(Srrp, ValidationRequiresMatchingStageCount) {
  auto inst = make_instance({0.4, 0.4}, {support({{0.05, 1.0}})});
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
}

TEST(Srrp, DegenerateTreeEqualsDrrp) {
  // A tree with a single scenario (one support point per stage) is a
  // deterministic problem: the SRRP optimum must equal the DRRP optimum
  // with the same price path.
  rrp::Rng rng(151);
  const auto demand = generate_demand(6, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  std::vector<double> prices = {0.06, 0.055, 0.07, 0.05, 0.065, 0.06};
  for (double p : prices) supports.push_back(support({{p, 1.0}}));
  auto srrp_inst = make_instance(demand, supports);
  const SrrpPolicy policy = solve_srrp_milp(srrp_inst);
  ASSERT_TRUE(policy.feasible());

  DrrpInstance drrp_inst;
  drrp_inst.demand = demand;
  drrp_inst.compute_price = prices;
  const RentalPlan plan = solve_drrp(drrp_inst);
  ASSERT_TRUE(plan.feasible());
  EXPECT_NEAR(policy.expected_cost, plan.cost.total(), 1e-5);
}

TEST(Srrp, InventoryBalanceAlongEveryScenario) {
  rrp::Rng rng(152);
  const auto demand = generate_demand(3, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.5}, {0.08, 0.5}}),
      support({{0.05, 0.5}, {0.08, 0.5}}),
      support({{0.06, 1.0}})};
  auto inst = make_instance(demand, supports);
  inst.initial_storage = 0.2;
  const SrrpPolicy policy = solve_srrp_milp(inst);
  ASSERT_TRUE(policy.feasible());
  for (std::size_t leaf : inst.tree.leaves()) {
    double store = inst.initial_storage;
    for (std::size_t v : inst.tree.path_from_root(leaf)) {
      const std::size_t slot = inst.tree.vertex(v).stage - 1;
      store += policy.alpha[v] - inst.demand[slot];
      EXPECT_GT(store, -1e-6);
      EXPECT_NEAR(store, policy.beta[v], 1e-6);
    }
  }
}

TEST(Srrp, ForcingConstraintHoldsPerVertex) {
  rrp::Rng rng(153);
  const auto demand = generate_demand(3, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.6}, {0.3, 0.4}}),
      support({{0.05, 0.6}, {0.3, 0.4}}), support({{0.06, 1.0}})};
  auto inst = make_instance(demand, supports);
  const SrrpPolicy policy = solve_srrp_milp(inst);
  ASSERT_TRUE(policy.feasible());
  for (std::size_t v = 1; v < inst.tree.num_vertices(); ++v) {
    if (!policy.chi[v]) {
      EXPECT_NEAR(policy.alpha[v], 0.0, 1e-7);
    }
  }
}

TEST(Srrp, RecourseAdaptsToPriceState) {
  // Slot-1 price is cheap or very expensive; slot 2 always moderate.
  // In the cheap state the planner should pre-generate for slot 2; in
  // the expensive state it should not rent (serve slot 1 from storage
  // or generate minimally) — i.e. decisions genuinely differ by state.
  std::vector<double> demand = {0.4, 0.4};
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.02, 0.5}, {1.5, 0.5}}),  // cheap vs out-of-bid-like
      support({{0.4, 1.0}})};
  auto inst = make_instance(demand, supports);
  inst.initial_storage = 0.4;  // slot-1 demand can be served from storage
  const SrrpPolicy policy = solve_srrp_milp(inst);
  ASSERT_TRUE(policy.feasible());
  const auto& s1 = inst.tree.stage_vertices(1);
  const std::size_t cheap = s1[0], dear = s1[1];
  EXPECT_EQ(policy.chi[cheap], 1);    // exploit the cheap price
  EXPECT_EQ(policy.chi[dear], 0);     // avoid the expensive state
  EXPECT_GT(policy.alpha[cheap], policy.alpha[dear]);
}

TEST(Srrp, ExpectedCostMatchesManualRecomputation) {
  rrp::Rng rng(154);
  const auto demand = generate_demand(2, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.7}, {0.09, 0.3}}), support({{0.06, 1.0}})};
  auto inst = make_instance(demand, supports);
  const SrrpPolicy policy = solve_srrp_milp(inst);
  ASSERT_TRUE(policy.feasible());
  double expected = 0.0;
  for (std::size_t v = 1; v < inst.tree.num_vertices(); ++v) {
    const auto& vert = inst.tree.vertex(v);
    const std::size_t slot = vert.stage - 1;
    expected += vert.path_prob *
                (inst.costs.generation_cost(policy.alpha[v], slot) +
                 inst.costs.holding(slot) * policy.beta[v] +
                 inst.costs.delivery_cost(inst.demand[slot], slot) +
                 (policy.chi[v] ? vert.price : 0.0));
  }
  EXPECT_NEAR(policy.expected_cost, expected, 1e-6);
}

TEST(Srrp, StochasticSolutionBeatsNaiveFixedPlanInExpectation) {
  // Jensen-style sanity: the SRRP optimum on the tree is no worse than
  // executing the best deterministic plan (built on expected prices)
  // across all scenarios.
  rrp::Rng rng(155);
  const auto demand = generate_demand(3, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.04, 0.5}, {0.30, 0.5}}),
      support({{0.04, 0.5}, {0.30, 0.5}}),
      support({{0.04, 0.5}, {0.30, 0.5}})};
  auto inst = make_instance(demand, supports);
  const SrrpPolicy policy = solve_srrp_milp(inst);
  ASSERT_TRUE(policy.feasible());

  // Deterministic plan at the expected price 0.17 per slot.
  DrrpInstance det;
  det.demand = demand;
  det.compute_price.assign(3, 0.17);
  const RentalPlan fixed = solve_drrp(det);
  ASSERT_TRUE(fixed.feasible());
  // Expected cost of executing the fixed schedule on the tree: compute
  // cost becomes the realised price at each vertex where chi = 1.
  double fixed_expected = 0.0;
  for (std::size_t v = 1; v < inst.tree.num_vertices(); ++v) {
    const auto& vert = inst.tree.vertex(v);
    const std::size_t slot = vert.stage - 1;
    fixed_expected += vert.path_prob *
                      (inst.costs.generation_cost(fixed.alpha[slot], slot) +
                       inst.costs.holding(slot) * fixed.beta[slot] +
                       inst.costs.delivery_cost(demand[slot], slot) +
                       (fixed.chi[slot] ? vert.price : 0.0));
  }
  EXPECT_LE(policy.expected_cost, fixed_expected + 1e-6);
}

TEST(MakeStageSupports, BuildsBidTruncatedReducedSupports) {
  std::vector<double> history;
  rrp::Rng rng(156);
  for (int i = 0; i < 2000; ++i) history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base = EmpiricalPriceDistribution::from_history(history, 12);
  std::vector<double> bids = {0.065, 0.065, 0.065};
  std::vector<std::size_t> widths = {4, 2, 1};
  const auto supports = make_stage_supports(base, bids, 0.2, widths);
  ASSERT_EQ(supports.size(), 3u);
  EXPECT_LE(supports[0].size(), 4u);
  EXPECT_LE(supports[1].size(), 2u);
  EXPECT_EQ(supports[2].size(), 1u);
  // Stage 0 must contain the out-of-bid state (bid below max price).
  bool has_oob = false;
  for (const auto& p : supports[0]) has_oob |= p.out_of_bid;
  EXPECT_TRUE(has_oob);
  for (const auto& s : supports) {
    double mass = 0.0;
    for (const auto& p : s) mass += p.prob;
    EXPECT_NEAR(mass, 1.0, 1e-9);
  }
}

TEST(MatchStage1Vertex, PicksNearestInBidOrOutOfBid) {
  std::vector<PricePoint> stage1 = {{0.05, 0.4, false},
                                    {0.07, 0.4, false},
                                    {0.2, 0.2, true}};
  std::vector<std::vector<PricePoint>> supports = {stage1};
  const auto tree = ScenarioTree::build(supports);
  const auto& s1 = tree.stage_vertices(1);
  EXPECT_EQ(match_stage1_vertex(tree, true, 0.055), s1[0]);
  EXPECT_EQ(match_stage1_vertex(tree, true, 0.069), s1[1]);
  EXPECT_EQ(match_stage1_vertex(tree, false, 0.5), s1[2]);
}

TEST(MatchStage1Vertex, FallsBackWhenKindMissing) {
  // Tree without an out-of-bid vertex but the auction was lost.
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.5}, {0.07, 0.5}})};
  const auto tree = ScenarioTree::build(supports);
  const std::size_t v = match_stage1_vertex(tree, false, 0.08);
  EXPECT_EQ(v, tree.stage_vertices(1)[1]);  // nearest by price
}

}  // namespace
