// Cross-validation of the two exact DRRP solvers: the paper's MILP and
// the Wagner-Whitin dynamic program must agree on the optimum for
// uncapacitated instances.
#include "core/wagner_whitin.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"

namespace {

using namespace rrp::core;

DrrpInstance random_instance(std::uint64_t seed, std::size_t slots) {
  rrp::Rng rng(seed);
  DrrpInstance inst;
  inst.demand = generate_demand(slots, DemandConfig{}, rng);
  inst.compute_price.resize(slots);
  for (auto& p : inst.compute_price) p = rng.uniform(0.02, 1.0);
  inst.initial_storage = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.8) : 0.0;
  return inst;
}

class SolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreement, AllThreeSolversMatch) {
  const auto inst =
      random_instance(7000 + static_cast<std::uint64_t>(GetParam()),
                      6 + static_cast<std::size_t>(GetParam()) % 7);
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  const RentalPlan agg = solve_drrp_milp(inst);
  ASSERT_EQ(ww.status, rrp::milp::MipStatus::Optimal);
  ASSERT_TRUE(agg.feasible());
  EXPECT_NEAR(ww.cost.total(), agg.cost.total(),
              1e-5 * (1.0 + ww.cost.total()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverAgreement, ::testing::Range(0, 15));

TEST(WagnerWhitin, MatchesMilpOnLongerHorizon) {
  const auto inst = random_instance(8101, 24);
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  const RentalPlan milp = solve_drrp_milp(inst);
  EXPECT_NEAR(ww.cost.total(), milp.cost.total(), 1e-5);
}

TEST(WagnerWhitin, PlanIsFeasible) {
  const auto inst = random_instance(8202, 24);
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  // evaluate_schedule validates balance and the forcing constraint, and
  // must agree with the DP's own accounting.
  const CostBreakdown check = evaluate_schedule(inst, ww.alpha, ww.chi);
  EXPECT_NEAR(check.total(), ww.cost.total(), 1e-9);
}

TEST(WagnerWhitin, ZeroInventoryOrderingProperty) {
  const auto inst = random_instance(8303, 24);
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  // Generation happens only when inventory (beyond leftover epsilon
  // serving no future demand) has run out: beta > 0 implies the next
  // rental slot has not yet arrived.  Practically: at any slot with
  // chi=1, the previous slot's inventory must be ~0 once epsilon is
  // exhausted.
  double eps_left = inst.initial_storage;
  for (std::size_t t = 0; t < inst.horizon(); ++t) {
    const double prev_beta = t == 0 ? inst.initial_storage : ww.beta[t - 1];
    if (ww.chi[t] && eps_left <= 1e-9) {
      EXPECT_NEAR(prev_beta, 0.0, 1e-6) << "slot " << t;
    }
    eps_left = std::max(eps_left - inst.demand[t], 0.0);
  }
}

TEST(WagnerWhitin, CheapSlotAttractsGeneration) {
  DrrpInstance inst;
  inst.demand = constant_demand(6, 0.4);
  inst.compute_price = {0.8, 0.8, 0.01, 0.8, 0.8, 0.8};
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  EXPECT_EQ(ww.chi[2], 1);  // the bargain slot must be used
  // All demand from slot 2 onward is generated there (holding is far
  // cheaper than 0.8 rentals).
  EXPECT_NEAR(ww.alpha[2], 0.4 * 4, 1e-9);
}

TEST(WagnerWhitin, RejectsCapacitatedInstances) {
  DrrpInstance inst;
  inst.demand = constant_demand(3, 0.4);
  inst.compute_price.assign(3, 0.2);
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.assign(3, 1.0);
  EXPECT_THROW(solve_drrp_wagner_whitin(inst), rrp::InvalidArgument);
}

TEST(WagnerWhitin, HandlesZeroDemandSlots) {
  DrrpInstance inst;
  inst.demand = {0.0, 0.5, 0.0, 0.0, 0.7, 0.0};
  inst.compute_price.assign(6, 0.4);
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  const RentalPlan milp = solve_drrp_milp(inst);
  EXPECT_NEAR(ww.cost.total(), milp.cost.total(), 1e-6);
  EXPECT_EQ(ww.chi[0], 0);
}

TEST(WagnerWhitin, LargeEpsilonCoversEverything) {
  DrrpInstance inst;
  inst.demand = constant_demand(5, 0.3);
  inst.compute_price.assign(5, 0.4);
  inst.initial_storage = 2.0;  // more than total demand of 1.5
  const RentalPlan ww = solve_drrp_wagner_whitin(inst);
  for (char c : ww.chi) EXPECT_EQ(c, 0);
  EXPECT_NEAR(ww.cost.compute, 0.0, 1e-12);
  // The leftover 0.5 GB is held to the end of the horizon.
  EXPECT_NEAR(ww.beta.back(), 0.5, 1e-9);
  const RentalPlan milp = solve_drrp_milp(inst);
  EXPECT_NEAR(ww.cost.total(), milp.cost.total(), 1e-6);
}

TEST(WagnerWhitinDeadline, ExpiredDeadlineThrows) {
  const auto inst = random_instance(901, 24);
  rrp::common::FakeClock clock(100.0);
  const auto d = rrp::common::Deadline::after(0.0, clock);
  EXPECT_THROW(solve_drrp_wagner_whitin(inst, d), rrp::TimeLimitExceeded);
}

TEST(WagnerWhitinDeadline, GenerousDeadlineMatchesUnlimited) {
  const auto inst = random_instance(902, 24);
  rrp::common::FakeClock clock;
  const auto d = rrp::common::Deadline::after(1e9, clock);
  const RentalPlan bounded = solve_drrp_wagner_whitin(inst, d);
  const RentalPlan unbounded = solve_drrp_wagner_whitin(inst);
  EXPECT_NEAR(bounded.cost.total(), unbounded.cost.total(), 1e-12);
}

TEST(WagnerWhitinDeadline, TimeLimitExceededIsAnRrpError) {
  // The DP has no sound partial answer, so expiry surfaces through the
  // ordinary error hierarchy with a diagnosable message.
  const auto inst = random_instance(903, 8);
  rrp::common::FakeClock clock(1.0);
  const auto d = rrp::common::Deadline::after(-1.0, clock);
  try {
    solve_drrp_wagner_whitin(inst, d);
    FAIL() << "expected rrp::TimeLimitExceeded";
  } catch (const rrp::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

}  // namespace
