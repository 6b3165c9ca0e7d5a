// solve_drrp / solve_srrp are the single planner entries: they send an
// uncapacitated instance to the exact dynamic program and a capacitated
// one to the paper's MILP.  Each branch must return exactly what the
// solver behind it returns, and an expired deadline must come back as
// NoIncumbent on both.
#include <gtest/gtest.h>

#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/markov_prices.hpp"
#include "core/srrp.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"

namespace {

using namespace rrp::core;
using rrp::milp::MipStatus;

void expect_same_plan(const RentalPlan& a, const RentalPlan& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.chi, b.chi);
  EXPECT_EQ(a.cost.total(), b.cost.total());
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.cuts_added, b.cuts_added);
}

void expect_same_policy(const SrrpPolicy& a, const SrrpPolicy& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.chi, b.chi);
  EXPECT_EQ(a.expected_cost, b.expected_cost);
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.cuts_added, b.cuts_added);
}

DrrpInstance drrp_instance(std::uint64_t seed, std::size_t slots) {
  rrp::Rng rng(seed);
  DrrpInstance inst;
  inst.demand = generate_demand(slots, DemandConfig{}, rng);
  inst.compute_price.resize(slots);
  for (double& p : inst.compute_price) p = rng.uniform(0.05, 0.9);
  inst.initial_storage = rng.uniform(0.0, 0.5);
  return inst;
}

/// Binding bottleneck: capacity just above each slot's demand.
template <typename Instance>
void cap(Instance& inst, rrp::Rng& rng) {
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.clear();
  for (double d : inst.demand)
    inst.bottleneck_capacity.push_back(d + 0.05 * rng.uniform());
}

SrrpInstance iid_tree_instance(std::uint64_t seed, std::size_t stages) {
  rrp::Rng rng(seed);
  SrrpInstance inst;
  inst.demand = generate_demand(stages, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  for (std::size_t s = 0; s < stages; ++s) {
    const double lo = rng.uniform(0.03, 0.08);
    const double p = rng.uniform(0.2, 0.8);
    supports.push_back({PricePoint{lo, p, false},
                        PricePoint{lo + rng.uniform(0.05, 0.4), 1.0 - p,
                                   false}});
  }
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = 0.2;
  return inst;
}

SrrpInstance markov_tree_instance(std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> hourly(2000);
  double level = 0.06;
  for (double& v : hourly) {
    level = 0.06 + 0.9 * (level - 0.06) + rng.normal(0.0, 0.002);
    v = std::max(level, 0.01);
  }
  const MarkovPriceModel model = MarkovPriceModel::fit(hourly, 5);
  const std::vector<double> bids(4, 0.061);
  const std::vector<std::size_t> widths = {3, 2, 2, 1};
  SrrpInstance inst;
  inst.demand = generate_demand(4, DemandConfig{}, rng);
  inst.tree = model.build_tree(0.06, bids, 0.2, widths);
  return inst;
}

SrrpInstance joint_tree_instance() {
  const std::vector<std::vector<JointPoint>> stages(
      3, {JointPoint{PricePoint{0.05, 0.5, false}, 0.2},
          JointPoint{PricePoint{0.30, 0.5, false}, 0.8}});
  SrrpInstance inst;
  auto [tree, vertex_demand] = build_joint_tree(stages);
  inst.tree = std::move(tree);
  inst.vertex_demand = std::move(vertex_demand);
  inst.demand.assign(3, 0.5);
  return inst;
}

rrp::milp::BnbOptions expired_options(rrp::common::FakeClock& clock) {
  rrp::milp::BnbOptions options;
  options.deadline = rrp::common::Deadline::after(-1.0, clock);
  return options;
}

TEST(PlannerDispatch, UncapacitatedDrrpIsWagnerWhitin) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const DrrpInstance inst = drrp_instance(seed, 24);
    ASSERT_FALSE(inst.capacitated());
    expect_same_plan(solve_drrp(inst), solve_drrp_wagner_whitin(inst));
  }
}

TEST(PlannerDispatch, CapacitatedDrrpIsTheMilp) {
  rrp::Rng rng(21);
  DrrpInstance inst = drrp_instance(21, 8);
  cap(inst, rng);
  ASSERT_TRUE(inst.capacitated());
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  expect_same_plan(plan, solve_drrp_milp(inst));
}

TEST(PlannerDispatch, UncapacitatedSrrpIsTheTreeDp) {
  const std::vector<SrrpInstance> instances = {
      iid_tree_instance(31, 4), markov_tree_instance(32),
      joint_tree_instance()};
  for (const SrrpInstance& inst : instances) {
    ASSERT_FALSE(inst.capacitated());
    expect_same_policy(solve_srrp(inst), solve_srrp_tree_dp(inst));
  }
}

TEST(PlannerDispatch, CapacitatedSrrpIsTheMilp) {
  rrp::Rng rng(41);
  SrrpInstance inst = iid_tree_instance(41, 3);
  cap(inst, rng);
  ASSERT_TRUE(inst.capacitated());
  const SrrpPolicy policy = solve_srrp(inst);
  ASSERT_TRUE(policy.feasible());
  expect_same_policy(policy, solve_srrp_milp(inst));
}

TEST(PlannerDispatch, ExpiredDeadlineGivesNoIncumbentOnBothBranches) {
  rrp::common::FakeClock clock(100.0);
  rrp::Rng rng(51);

  DrrpInstance drrp = drrp_instance(51, 12);
  const RentalPlan dp_plan = solve_drrp(drrp, expired_options(clock));
  EXPECT_EQ(dp_plan.status, MipStatus::NoIncumbent);
  EXPECT_TRUE(dp_plan.alpha.empty());
  cap(drrp, rng);
  EXPECT_EQ(solve_drrp(drrp, expired_options(clock)).status,
            MipStatus::NoIncumbent);

  SrrpInstance srrp = iid_tree_instance(52, 3);
  const SrrpPolicy dp_policy = solve_srrp(srrp, expired_options(clock));
  EXPECT_EQ(dp_policy.status, MipStatus::NoIncumbent);
  EXPECT_TRUE(dp_policy.alpha.empty());
  cap(srrp, rng);
  EXPECT_EQ(solve_srrp(srrp, expired_options(clock)).status,
            MipStatus::NoIncumbent);
}

}  // namespace
