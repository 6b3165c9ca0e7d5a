#include "milp/cuts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/drrp.hpp"
#include "core/demand.hpp"
#include "common/rng.hpp"

namespace {

using namespace rrp;
using milp::Cut;
using milp::CutPool;
using milp::LotSizingCutGenerator;
using milp::LotSlot;

TEST(Cut, ViolationMeasuresBothBounds) {
  Cut cut;
  cut.entries = {{0, 1.0}, {1, 2.0}};
  cut.lo = 1.0;
  cut.hi = 5.0;
  // activity = 1*1 + 2*3 = 7 -> violates hi by 2.
  EXPECT_NEAR(cut.violation({1.0, 3.0}), 2.0, 1e-12);
  // activity = 0 -> violates lo by 1.
  EXPECT_NEAR(cut.violation({0.0, 0.0}), 1.0, 1e-12);
  // activity = 3 -> satisfied.
  EXPECT_LE(cut.violation({1.0, 1.0}), 0.0);
}

// A 3-period chain with unit demands.  The hand-built fractional point
// produces alpha_t = D_t with tiny chi_t (the classic weak-relaxation
// optimum), which the l = 1 cut chi_1 >= 1 separates.
TEST(LotSizingCuts, SeparatesFractionalSetupPoint) {
  LotSizingCutGenerator gen;
  // Variable layout: alpha at 0..2, chi at 3..5.
  gen.add_chain({{0, 3, 1.0}, {1, 4, 1.0}, {2, 5, 1.0}});
  ASSERT_EQ(gen.num_chains(), 1u);

  // alpha meets demand exactly, chi is at the forcing-bound fraction.
  const std::vector<double> x = {1.0, 1.0, 1.0, 1.0 / 3.0, 0.5, 1.0};
  const auto cuts = gen.separate(x, 1e-6);
  ASSERT_FALSE(cuts.empty());
  for (const Cut& cut : cuts) {
    EXPECT_GT(cut.violation(x), 1e-6);
  }
}

// Every returned cut must be satisfied by every integer-feasible
// schedule.  Enumerate all chi subsets; for each feasible subset build
// the canonical schedule (produce at each open period everything needed
// until the next open period) and check the cuts hold.
TEST(LotSizingCuts, CutsAreValidForAllIntegerSchedules) {
  const std::vector<double> demand = {2.0, 0.0, 3.0, 1.0};
  const double initial_inventory = 1.0;
  const std::size_t T = demand.size();
  LotSizingCutGenerator gen;
  std::vector<LotSlot> slots;
  for (std::size_t t = 0; t < T; ++t)
    slots.push_back({t, T + t, demand[t]});
  gen.add_chain(slots, initial_inventory);

  // Fractional point: serve everything "just in time" with fractional
  // setups sized so the separation has something to find.
  std::vector<double> x(2 * T, 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    x[t] = demand[t];
    x[T + t] = demand[t] > 0.0 ? 0.3 : 0.0;
  }
  const auto cuts = gen.separate(x, 1e-6);
  ASSERT_FALSE(cuts.empty());

  std::size_t feasible_schedules = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << T); ++mask) {
    std::vector<double> sol(2 * T, 0.0);
    double inventory = initial_inventory;
    bool feasible = true;
    // Walk periods; at each open period produce the demand of every
    // period up to (excluding) the next open one.
    for (std::size_t t = 0; t < T && feasible; ++t) {
      if (mask & (std::size_t{1} << t)) {
        sol[T + t] = 1.0;
        double lot = 0.0;
        for (std::size_t s = t; s < T; ++s) {
          if (s > t && (mask & (std::size_t{1} << s))) break;
          lot += demand[s];
        }
        lot = std::max(lot - inventory, 0.0);
        sol[t] = lot;
        inventory += lot;
      }
      inventory -= demand[t];
      if (inventory < -1e-9) feasible = false;
    }
    if (!feasible) continue;
    ++feasible_schedules;
    for (const Cut& cut : cuts) {
      EXPECT_LE(cut.violation(sol), 1e-9)
          << "cut violated by integer schedule mask=" << mask;
    }
  }
  EXPECT_GT(feasible_schedules, 0u);
}

TEST(LotSizingCuts, IntegerPointYieldsNoCuts) {
  LotSizingCutGenerator gen;
  gen.add_chain({{0, 2, 1.0}, {1, 3, 2.0}});
  // Produce everything in period 0: alpha = (3, 0), chi = (1, 0).
  const std::vector<double> x = {3.0, 0.0, 1.0, 0.0};
  EXPECT_TRUE(gen.separate(x, 1e-6).empty());
}

TEST(LotSizingCuts, InitialInventoryNetsDemand) {
  LotSizingCutGenerator gen;
  // Inventory fully covers the first demand; cuts must not force a
  // setup in period 0.
  gen.add_chain({{0, 2, 1.0}, {1, 3, 1.0}}, /*initial_inventory=*/1.0);
  // chi_0 = 0 but period 1 served fractionally.
  const std::vector<double> x = {0.0, 1.0, 0.0, 0.25};
  const auto cuts = gen.separate(x, 1e-6);
  // The valid schedule alpha=(0,1), chi=(0,1) must satisfy every cut.
  const std::vector<double> integer_sol = {0.0, 1.0, 0.0, 1.0};
  for (const Cut& cut : cuts) {
    EXPECT_LE(cut.violation(integer_sol), 1e-9);
  }
}

TEST(CutPool, DeduplicatesByCoefficientsAndBounds) {
  CutPool pool;
  Cut a;
  a.entries = {{0, 1.0}, {3, 2.5}};
  a.lo = 1.0;
  EXPECT_TRUE(pool.add(a));
  EXPECT_FALSE(pool.add(a));  // exact duplicate
  Cut permuted;
  permuted.entries = {{3, 2.5}, {0, 1.0}};  // same support, other order
  permuted.lo = 1.0;
  EXPECT_FALSE(pool.add(permuted));
  Cut other_bound = a;
  other_bound.lo = 2.0;
  EXPECT_TRUE(pool.add(other_bound));
  Cut other_coeff = a;
  other_coeff.entries[1].coeff = 2.75;
  EXPECT_TRUE(pool.add(other_coeff));
  EXPECT_EQ(pool.size(), 3u);
}

// End-to-end: root cuts shrink the aggregated DRRP tree without
// changing the optimum.
TEST(LotSizingCuts, RootCutsShrinkDrrpTree) {
  Rng rng(11);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(16, core::DemandConfig{}, rng);
  inst.compute_price.assign(16, 0.4);

  milp::BnbOptions off;
  off.root_cuts = false;
  const auto plan_off = core::solve_drrp_milp(inst, off);
  ASSERT_EQ(plan_off.status, milp::MipStatus::Optimal);
  EXPECT_EQ(plan_off.cuts_added, 0u);

  milp::BnbOptions on;  // root_cuts defaults to true
  const auto plan_on = core::solve_drrp_milp(inst, on);
  ASSERT_EQ(plan_on.status, milp::MipStatus::Optimal);
  EXPECT_GT(plan_on.cuts_added, 0u);
  EXPECT_GE(plan_on.root_gap_closed, 0.0);
  EXPECT_LE(plan_on.root_gap_closed, 1.0);
  EXPECT_LT(plan_on.nodes_explored, plan_off.nodes_explored);
  EXPECT_NEAR(plan_on.cost.total(), plan_off.cost.total(), 1e-6);
}

}  // namespace
