// Joint (price, demand) scenario trees — the paper's stated future
// work ("stochastic optimization solutions for cloud resource
// provisioning with time-varying workloads") implemented on top of the
// per-vertex-demand SRRP generalisation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/srrp_dp.hpp"

namespace {

using namespace rrp::core;

std::vector<std::vector<JointPoint>> simple_joint(std::size_t stages) {
  // Each stage: (cheap price, low demand) with p=0.5 and (dear price,
  // high demand) with p=0.5.
  std::vector<std::vector<JointPoint>> supports;
  for (std::size_t s = 0; s < stages; ++s) {
    std::vector<JointPoint> stage;
    stage.push_back({PricePoint{0.05, 0.5, false}, 0.2});
    stage.push_back({PricePoint{0.30, 0.5, false}, 0.8});
    supports.push_back(std::move(stage));
  }
  return supports;
}

SrrpInstance joint_instance(std::size_t stages) {
  auto [tree, vertex_demand] = build_joint_tree(simple_joint(stages));
  SrrpInstance inst;
  inst.demand.assign(stages, 0.0);  // placeholder; overridden per vertex
  inst.tree = std::move(tree);
  inst.vertex_demand = std::move(vertex_demand);
  return inst;
}

TEST(JointTree, VertexDemandAssignment) {
  const auto inst = joint_instance(2);
  const auto& s1 = inst.tree.stage_vertices(1);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s1[0]), 0.2);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s1[1]), 0.8);
  // Stage 2: each parent branches into (0.2, 0.8) again.
  const auto& s2 = inst.tree.stage_vertices(2);
  ASSERT_EQ(s2.size(), 4u);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s2[0]), 0.2);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s2[1]), 0.8);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s2[2]), 0.2);
  EXPECT_DOUBLE_EQ(inst.demand_at_vertex(s2[3]), 0.8);
}

TEST(JointTree, ValidationChecksVertexDemand) {
  auto inst = joint_instance(2);
  inst.vertex_demand.pop_back();
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
  inst = joint_instance(2);
  inst.vertex_demand[1] = -0.1;
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
}

TEST(JointUncertainty, DpAndMilpAgree) {
  for (std::size_t stages : {2u, 3u}) {
    const auto inst = joint_instance(stages);
    const auto dp = solve_srrp_tree_dp(inst);
    const auto agg = solve_srrp_milp(inst);
    ASSERT_TRUE(agg.feasible());
    EXPECT_NEAR(dp.expected_cost, agg.expected_cost, 1e-6)
        << stages << " stages";
  }
}

TEST(JointUncertainty, BalanceHoldsPerScenario) {
  const auto inst = joint_instance(3);
  const auto dp = solve_srrp_tree_dp(inst);
  for (std::size_t leaf : inst.tree.leaves()) {
    double store = inst.initial_storage;
    for (std::size_t v : inst.tree.path_from_root(leaf)) {
      store += dp.alpha[v] - inst.demand_at_vertex(v);
      EXPECT_GT(store, -1e-7);
      store = std::max(store, 0.0);
      EXPECT_NEAR(store, dp.beta[v], 1e-7);
    }
  }
}

TEST(JointUncertainty, HighDemandStatesGetMoreGeneration) {
  // Price identical in both states; only demand differs.  The recourse
  // must generate more in high-demand states.
  std::vector<std::vector<JointPoint>> supports = {
      {{PricePoint{0.06, 0.5, false}, 0.2},
       {PricePoint{0.0601, 0.5, false}, 1.0}}};
  auto [tree, vertex_demand] = build_joint_tree(supports);
  SrrpInstance inst;
  inst.demand = {0.0};
  inst.tree = std::move(tree);
  inst.vertex_demand = std::move(vertex_demand);
  const auto dp = solve_srrp_tree_dp(inst);
  const auto& s1 = inst.tree.stage_vertices(1);
  EXPECT_LT(dp.alpha[s1[0]], dp.alpha[s1[1]]);
  EXPECT_NEAR(dp.alpha[s1[0]], 0.2, 1e-9);
  EXPECT_NEAR(dp.alpha[s1[1]], 1.0, 1e-9);
}

TEST(JointUncertainty, StochasticDemandPlanBeatsMeanDemandPlan) {
  // Executing the joint-tree policy across scenarios must cost no more
  // in expectation than planning against the mean demand and patching
  // shortfalls with emergency on-demand generation.
  const auto inst = joint_instance(3);
  const auto dp = solve_srrp_tree_dp(inst);

  // Mean-demand deterministic plan (price known mean, demand mean).
  DrrpInstance det;
  det.demand.assign(3, 0.5);              // E[demand]
  det.compute_price.assign(3, 0.175);     // E[price]
  const RentalPlan fixed = solve_drrp(det);
  ASSERT_TRUE(fixed.feasible());

  // Expected realised cost of the fixed plan on the joint tree with
  // shortfalls patched at the realised price (chi forced where needed).
  double fixed_expected = 0.0;
  for (std::size_t leaf : inst.tree.leaves()) {
    double store = inst.initial_storage;
    double cost = 0.0;
    const auto path = inst.tree.path_from_root(leaf);
    for (std::size_t j = 0; j < path.size(); ++j) {
      const std::size_t v = path[j];
      const double d = inst.demand_at_vertex(v);
      double alpha = fixed.alpha[j];
      bool rented = fixed.chi[j] != 0;
      if (store + alpha < d) {  // emergency top-up
        alpha = d - store;
        rented = true;
      }
      store = std::max(store + alpha - d, 0.0);
      cost += inst.costs.generation_cost(alpha, j) +
              inst.costs.holding(j) * store +
              inst.costs.delivery_cost(d, j) +
              (rented ? inst.tree.vertex(v).price : 0.0);
    }
    fixed_expected += inst.tree.vertex(leaf).path_prob * cost;
  }
  EXPECT_LE(dp.expected_cost, fixed_expected + 1e-6);
}

TEST(JointTree, RejectsEmptySupports) {
  std::vector<std::vector<JointPoint>> empty_stage = {{}};
  EXPECT_THROW(build_joint_tree(empty_stage), rrp::ContractViolation);
  std::vector<std::vector<JointPoint>> neg = {
      {{PricePoint{0.05, 1.0, false}, -0.5}}};
  EXPECT_THROW(build_joint_tree(neg), rrp::ContractViolation);
}

}  // namespace
