// Cross-layer consistency: the LP machinery (the simplex) applied
// to the *actual planner models* must agree with the exact dynamic
// programs — closing the loop between the generic solver stack and the
// domain solvers.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/wagner_whitin.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

using namespace rrp;

core::DrrpInstance random_drrp(std::uint64_t seed, std::size_t horizon) {
  Rng rng(seed);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.resize(horizon);
  for (auto& p : inst.compute_price) p = rng.uniform(0.05, 0.9);
  inst.initial_storage = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.6) : 0.0;
  return inst;
}

class LpRelaxationProperties : public ::testing::TestWithParam<int> {};

TEST_P(LpRelaxationProperties, AggregatedRelaxationLowerBoundsOptimum) {
  const auto inst = random_drrp(72000 + GetParam(), 10);
  core::DrrpVariables vars;
  const auto model = core::build_drrp(inst, &vars);
  const auto sol = lp::solve(model.to_lp());
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  const double relaxation =
      sol.objective + model.objective_constant();
  EXPECT_LE(relaxation, ww.cost.total() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpRelaxationProperties,
                         ::testing::Range(0, 12));

}  // namespace
