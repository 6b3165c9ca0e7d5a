// Per-solve telemetry under concurrency.  Every MipResult-derived field
// (nodes, warm/cold node LPs, cuts, LP iterations, recoveries and the
// sparse-LU factor_stats) counts the work of its own solve only, so
// solves overlapping on separate threads must report exactly what the
// same call reports when run alone.  The same holds for the
// SimulationResult degradation counts of overlapping simulations.  Part
// of the TSan suite (CI job tsan-concurrency).
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/policies.hpp"
#include "core/price_distribution.hpp"
#include "core/rolling_horizon.hpp"
#include "core/srrp.hpp"
#include "market/trace_generator.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

using namespace rrp;

/// The telemetry a solve reports, in one comparable record.
struct Telemetry {
  milp::MipStatus status = milp::MipStatus::NoIncumbent;
  std::size_t nodes = 0;
  std::size_t warm = 0;
  std::size_t cold = 0;
  std::size_t cuts = 0;
  double root_gap_closed = 0.0;
  std::size_t lp_iterations = 0;  ///< MipResult only (0 for plans)
  std::size_t recoveries = 0;     ///< MipResult only (0 for plans)
  lp::FactorizationStats factor;
};

template <typename Result>
Telemetry telemetry_of(const Result& r) {
  Telemetry t;
  t.status = r.status;
  t.nodes = r.nodes_explored;
  t.warm = r.warm_started_nodes;
  t.cold = r.cold_solved_nodes;
  t.cuts = r.cuts_added;
  t.root_gap_closed = r.root_gap_closed;
  t.factor = r.factor_stats;
  return t;
}

void expect_same(const Telemetry& solo, const Telemetry& got,
                 const std::string& what) {
  EXPECT_EQ(got.status, solo.status) << what;
  EXPECT_EQ(got.nodes, solo.nodes) << what;
  EXPECT_EQ(got.warm, solo.warm) << what;
  EXPECT_EQ(got.cold, solo.cold) << what;
  EXPECT_EQ(got.cuts, solo.cuts) << what;
  EXPECT_EQ(got.root_gap_closed, solo.root_gap_closed) << what;
  EXPECT_EQ(got.lp_iterations, solo.lp_iterations) << what;
  EXPECT_EQ(got.recoveries, solo.recoveries) << what;
  EXPECT_EQ(got.factor.refactorizations, solo.factor.refactorizations)
      << what;
  EXPECT_EQ(got.factor.eta_updates, solo.factor.eta_updates) << what;
  EXPECT_EQ(got.factor.fill_ratio_sum, solo.factor.fill_ratio_sum) << what;
}

core::DrrpInstance drrp_instance(std::size_t horizon) {
  Rng rng(11);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.assign(horizon, 0.4);
  return inst;
}

core::SrrpInstance srrp_instance(std::size_t width) {
  Rng rng(13);
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i)
    history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base =
      core::EmpiricalPriceDistribution::from_history(history, 12);
  const std::vector<std::size_t> widths = {width, 2, 2, 1, 1};
  const std::vector<double> bids(widths.size(), 0.065);
  core::SrrpInstance inst;
  inst.demand =
      core::generate_demand(widths.size(), core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(
      core::make_stage_supports(base, bids, 0.2, widths));
  return inst;
}

/// Uncapacitated lot sizing with binary setups; a real tree under
/// most-fractional branching without cuts.
milp::Model lot_sizing(int horizon) {
  using namespace rrp::milp;
  Model m;
  const double big_m = 3.0 * horizon;
  LinExpr cost;
  Var prev_beta{};
  for (int t = 0; t < horizon; ++t) {
    const Var y = m.add_binary();
    const Var alpha = m.add_continuous(0.0, big_m);
    const Var beta = m.add_continuous(0.0, big_m);
    cost += (4.0 + t % 3) * LinExpr(y) + (1.0 + 0.25 * (t % 4)) *
            LinExpr(alpha) + 0.3 * LinExpr(beta);
    m.add_constraint(LinExpr(alpha) - big_m * LinExpr(y) <= 0.0);
    LinExpr balance = LinExpr(alpha) - LinExpr(beta);
    if (t > 0) balance += LinExpr(prev_beta);
    m.add_constraint(std::move(balance) == 1.0 + (t % 2));
    prev_beta = beta;
  }
  m.set_objective(std::move(cost), Objective::Minimize);
  return m;
}

TEST(ConcurrentSolveTelemetry, OverlappingSolvesMatchSoloRuns) {
  const core::DrrpInstance drrp = drrp_instance(16);
  const core::SrrpInstance srrp = srrp_instance(3);
  const milp::Model lot = lot_sizing(12);

  // Aggregated DRRP with root (l,S) cuts, then a tree; aggregated SRRP
  // without cuts, capped at 300 nodes; a raw MILP whose first node LPs
  // fail on purpose so the recovery ladder runs.
  std::vector<std::function<Telemetry()>> solves = {
      [&] {
        return telemetry_of(core::solve_drrp_milp(drrp));
      },
      [&] {
        milp::BnbOptions opt;
        opt.max_nodes = 300;
        opt.root_cuts = false;
        return telemetry_of(core::solve_srrp_milp(srrp, opt));
      },
      [&] {
        rrp::testing::FaultInjector inj;
        inj.arm_lp_failures(2);
        milp::BnbOptions opt;
        opt.lp.fault_injector = &inj;
        const milp::MipResult r = milp::solve(lot, opt);
        Telemetry t = telemetry_of(r);
        t.lp_iterations = r.lp_iterations;
        t.recoveries = r.lp_failures_recovered;
        return t;
      },
  };

  std::vector<Telemetry> solo;
  for (const auto& solve : solves) solo.push_back(solve());
  // Every solve must build a real tree, or overlap tests nothing.
  EXPECT_GT(solo[0].cuts, 0u);
  for (const Telemetry& t : solo) EXPECT_GT(t.nodes, 10u);
  EXPECT_GT(solo[2].recoveries, 0u);

  // Two copies of each solve per round, released together.
  constexpr std::size_t kCopies = 2;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    const std::size_t n = solves.size() * kCopies;
    std::vector<Telemetry> got(n);
    std::latch start(static_cast<std::ptrdiff_t>(n));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = solves[i % solves.size()]();
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t i = 0; i < n; ++i)
      expect_same(solo[i % solves.size()], got[i],
                  "round " + std::to_string(round) + " solve " +
                      std::to_string(i % solves.size()));
  }
}

core::SimulationInputs simulation_inputs(std::size_t horizon) {
  const auto trace =
      market::generate_trace(market::VmClass::C1Medium, 17);
  const auto hourly = trace.hourly();
  const long history_hours = 240;
  core::SimulationInputs in;
  in.vm = market::VmClass::C1Medium;
  in.history.assign(hourly.begin(), hourly.begin() + history_hours);
  in.actual_spot.assign(
      hourly.begin() + history_hours,
      hourly.begin() + history_hours + static_cast<long>(horizon));
  Rng rng(19);
  in.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  return in;
}

/// Injector i faults i + 1 slots of every 6 across the whole horizon:
/// timeouts at even slots, numerical failures at odd ones.
void arm_schedule(rrp::testing::FaultInjector& inj, std::size_t i,
                  std::size_t horizon) {
  for (std::size_t t = 0; t < horizon; ++t) {
    if (t % 6 > i) continue;
    if (t % 2 == 0)
      inj.inject_solver_timeout(t);
    else
      inj.inject_solver_numerical_failure(t);
  }
}

void expect_same_fallbacks(const core::SimulationResult& serial,
                           const core::SimulationResult& got,
                           const std::string& what) {
  EXPECT_EQ(got.replan_timeouts, serial.replan_timeouts) << what;
  EXPECT_EQ(got.replan_numerical_failures, serial.replan_numerical_failures)
      << what;
  EXPECT_EQ(got.replans_rejected, serial.replans_rejected) << what;
  EXPECT_EQ(got.fallback_reused_tail, serial.fallback_reused_tail) << what;
  EXPECT_EQ(got.fallback_heuristic, serial.fallback_heuristic) << what;
  EXPECT_EQ(got.fallback_on_demand, serial.fallback_on_demand) << what;
  ASSERT_EQ(got.fallbacks.size(), serial.fallbacks.size()) << what;
  for (std::size_t k = 0; k < got.fallbacks.size(); ++k) {
    EXPECT_EQ(got.fallbacks[k].slot, serial.fallbacks[k].slot) << what;
    EXPECT_EQ(got.fallbacks[k].reason, serial.fallbacks[k].reason) << what;
    EXPECT_EQ(got.fallbacks[k].action, serial.fallbacks[k].action) << what;
  }
}

TEST(ConcurrentSimulations, FallbackCountsMatchSerialRuns) {
  constexpr std::size_t kHorizon = 48;
  constexpr std::size_t kThreads = 6;
  const core::SimulationInputs in = simulation_inputs(kHorizon);
  const core::PolicyConfig policy = core::sto_exp_mean_policy();

  std::vector<core::SimulationResult> serial;
  for (std::size_t i = 0; i < kThreads; ++i) {
    rrp::testing::FaultInjector inj(i);
    arm_schedule(inj, i, kHorizon);
    serial.push_back(core::simulate_policy(in, policy, &inj));
  }
  // Distinct schedules give distinct counts, so cross-attribution
  // between the runs cannot cancel out.
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_GT(serial[i].fallbacks.size(), serial[i - 1].fallbacks.size());
    EXPECT_GT(serial[i].replan_numerical_failures, 0u);
  }

  // Several rounds, so the runs overlap even when one round's threads
  // happen to start apart.
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<core::SimulationResult> got(kThreads);
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        rrp::testing::FaultInjector inj(i);
        arm_schedule(inj, i, kHorizon);
        start.arrive_and_wait();
        got[i] = core::simulate_policy(in, policy, &inj);
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t i = 0; i < kThreads; ++i)
      expect_same_fallbacks(serial[i], got[i],
                            "round " + std::to_string(round) +
                                " simulation " + std::to_string(i));
  }
}

}  // namespace
