// End-to-end planner benchmark harness (single process, single thread).
//
//   rrp_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE]
//
// Set-up turns the seed into the workload's inputs (spot traces, demand,
// revocation draws, solver instances).  The harness then repeats the
// workload's fixed suite of public-API calls -- simulate_policy,
// ideal_case_cost, solve_drrp, solve_srrp -- until S seconds have been
// measured, checks every output, and prints one JSON object of raw
// results on stdout.  perfbench/run.py turns that object (and, with
// --trace 1, the span file) into the benchmark's metrics.
//
// Every call runs serially on the calling thread, so registry counter
// deltas and SimulationResult telemetry belong to exactly one call.
//
// --trace 0 measures the end-to-end figures with span recording off.
// --trace 1 alternates untraced and traced passes of the suite (their
// ratio is the tracing overhead), wraps each API call in a root span
// named after it, and then replays every traced pass's
// rolling-horizon decisions through the layers that have no span inside
// the library (distribution snapshot, stage supports, tree build and
// repair, Markov trees, the two DP solvers, the revocation model), each
// call in a `bench.probe.*` root span.  Spans are flushed to FILE after
// every root span, so the ring only ever holds one call's spans.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/evaluation.hpp"
#include "core/markov_prices.hpp"
#include "core/policies.hpp"
#include "core/price_distribution.hpp"
#include "core/rolling_horizon.hpp"
#include "core/scenario_tree.hpp"
#include "core/srrp.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "market/revocation.hpp"
#include "market/trace_generator.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp;

double now_s() { return common::real_clock().now_seconds(); }

// --- Workload shapes --------------------------------------------------

constexpr std::size_t kHistoryHours = 24 * 60;  // every policy's fit window
constexpr std::size_t kSimHours = 168;          // predict-refresh, expmean-tree
constexpr std::size_t kPredictWindows = 16;
constexpr std::size_t kExpMeanWindows = 32;
constexpr std::size_t kHostileTrials = 8;
constexpr std::size_t kHostileHours = 72;
constexpr std::size_t kHostileShiftHours = 24 * 21;
constexpr std::size_t kCapacitatedInstances = 195;
constexpr std::size_t kCapacitatedHours = 24;
/// Bottleneck head-room above each slot's demand, drawn U(0, this) GB:
/// Q_t >= D_t keeps every instance feasible, and the small head-room
/// makes the bottleneck bind on most slots.
constexpr double kCapacityHeadroom = 0.04;
constexpr std::size_t kCapacitatedSrrpInstances = 4;
constexpr std::size_t kCapacitatedSrrpStages = 6;
constexpr std::size_t kUncapacitatedHours = 48;  // `rrp plan --solver milp`

/// decision_p95 needs at least this many decisions per pass (ten beyond
/// the 95th percentile).
constexpr std::size_t kMinDecisions = 200;
/// Untraced runs measure past --seconds until they have this many
/// passes to take each call's fastest from, but never past kMaxSeconds.
constexpr std::size_t kMinPasses = 3;
constexpr double kMaxSeconds = 120.0;

/// Set-up runs this many times; setup_s is their median.
constexpr std::size_t kSetupRepeats = 7;

/// Spans one API call may record before it is flushed.
constexpr std::size_t kRingCapacity = 1 << 16;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct SimCase {
  std::size_t input = 0;  ///< index into Workload::inputs
  core::PolicyConfig policy;
};

enum class SolveKind { CapacitatedDrrp, UncapacitatedDrrp, CapacitatedSrrp };

struct SolveCase {
  SolveKind kind = SolveKind::CapacitatedDrrp;
  core::DrrpInstance drrp;
  core::SrrpInstance srrp;
  /// Realised spot prices over the instance's horizon, to score the
  /// plan's bids; empty when the instance prices on-demand (no bid).
  std::vector<double> realised;
};

struct Workload {
  std::vector<core::SimulationInputs> inputs;
  std::vector<SimCase> sims;
  std::vector<SolveCase> solves;
};

/// Every workload trades on the same calibrated market: the trace the
/// figure benches share (master seed 2012), cut into fixed windows.  The
/// seed draws everything else -- demand, revocation processes, capacity
/// head-room.  A seed-drawn market would let the few price spikes in a
/// window decide bid_mspe and overpay_pct: across seeds 1..5 they swung
/// by 38% to 350% (interquartile range over median), far past any usable
/// regression bound.
constexpr std::uint64_t kMarketSeed = 2012;

std::vector<double> market_hours() {
  return market::generate_trace(market::VmClass::C1Medium, kMarketSeed)
      .hourly();
}

/// `count` windows spread evenly over the market, demand from the seed.
std::vector<core::SimulationInputs> seeded_windows(std::uint64_t seed,
                                                   std::size_t count,
                                                   std::size_t hours) {
  const std::vector<double> hourly = market_hours();
  const std::size_t span = kHistoryHours + hours;
  const std::size_t stride = (hourly.size() - span) / count;
  Rng rng(mix(seed, 1));
  std::vector<core::SimulationInputs> out;
  for (std::size_t k = 0; k < count; ++k) {
    const auto start = static_cast<long>(k * stride);
    core::SimulationInputs in;
    in.vm = market::VmClass::C1Medium;
    in.history.assign(hourly.begin() + start,
                      hourly.begin() + start + kHistoryHours);
    in.actual_spot.assign(hourly.begin() + start + kHistoryHours,
                          hourly.begin() + start + static_cast<long>(span));
    in.demand = core::generate_demand(hours, core::DemandConfig{}, rng);
    out.push_back(std::move(in));
  }
  return out;
}

core::PolicyConfig incremental(core::PolicyConfig p) {
  p.replan_every = 1;
  p.model_update_every = 1;
  p.replan_mode = core::ReplanMode::Incremental;
  return p;
}

void add_sims(Workload& w, const std::vector<core::PolicyConfig>& policies) {
  for (std::size_t i = 0; i < w.inputs.size(); ++i)
    for (const core::PolicyConfig& p : policies) w.sims.push_back({i, p});
}

Workload predict_refresh(std::uint64_t seed) {
  Workload w;
  w.inputs = seeded_windows(seed, kPredictWindows, kSimHours);
  add_sims(w, {incremental(core::sto_predict_policy()),
               incremental(core::det_predict_policy())});
  return w;
}

Workload expmean_tree(std::uint64_t seed) {
  Workload w;
  w.inputs = seeded_windows(seed, kExpMeanWindows, kSimHours);
  core::PolicyConfig cadence6 = incremental(core::sto_exp_mean_policy());
  cadence6.name = "sto-exp-mean-r6";
  cadence6.replan_every = 6;
  add_sims(w, {incremental(core::sto_exp_mean_policy()),
               incremental(core::sto_markov_policy()),
               incremental(core::det_exp_mean_policy()), cadence6});
  return w;
}

Workload hostile_market(std::uint64_t seed) {
  Workload w;
  const auto policies = core::interruption_policies();
  for (const core::InterruptionRegime& regime :
       core::standard_interruption_regimes()) {
    core::EvaluationConfig cfg;
    cfg.eval_hours = kHostileHours;
    cfg.window_shift_hours = kHostileShiftHours;
    cfg.history_hours = kHistoryHours;
    cfg.seed = kMarketSeed;
    cfg.revocation = regime.config;
    // Same per-regime seed derivation as evaluate_under_regimes.
    cfg.revocation.seed =
        mix(seed, 2) ^ std::hash<std::string>{}(regime.name);
    Rng rng(mix(seed, 3));
    for (std::size_t trial = 0; trial < kHostileTrials; ++trial) {
      w.inputs.push_back(core::make_trial_inputs(cfg, trial));
      w.inputs.back().demand =
          core::generate_demand(kHostileHours, core::DemandConfig{}, rng);
      for (const core::PolicyConfig& p : policies)
        w.sims.push_back({w.inputs.size() - 1, p});
    }
  }
  return w;
}

Workload capacitated_milp(std::uint64_t seed) {
  Workload w;
  const std::vector<double> hourly = market_hours();
  Rng rng(mix(seed, 4));
  const double lambda = market::info(market::VmClass::C1Medium).on_demand_hourly;
  const std::size_t H = kCapacitatedHours;
  const std::size_t stride = (hourly.size() - 2 * H) / kCapacitatedInstances;

  // 24 h DRRP with a binding bottleneck.  Bids are yesterday's prices
  // (seasonal-naive); `realised` is the day the plan executes on.
  for (std::size_t k = 0; k < kCapacitatedInstances; ++k) {
    const std::size_t start = H + k * stride;
    SolveCase c;
    c.kind = SolveKind::CapacitatedDrrp;
    c.drrp.vm = market::VmClass::C1Medium;
    c.drrp.demand = core::generate_demand(H, core::DemandConfig{}, rng);
    c.drrp.compute_price.assign(hourly.begin() + static_cast<long>(start - H),
                                hourly.begin() + static_cast<long>(start));
    c.realised.assign(hourly.begin() + static_cast<long>(start),
                      hourly.begin() + static_cast<long>(start + H));
    c.drrp.bottleneck_rate = 1.0;
    for (double d : c.drrp.demand)
      c.drrp.bottleneck_capacity.push_back(d +
                                           kCapacityHeadroom * rng.uniform());
    w.solves.push_back(std::move(c));
  }

  // Small capacitated SRRP trees (aggregated deterministic equivalent).
  for (std::size_t k = 0; k < kCapacitatedSrrpInstances; ++k) {
    const std::size_t start = kHistoryHours + k * stride;
    const std::vector<double> history(
        hourly.begin() + static_cast<long>(start - kHistoryHours),
        hourly.begin() + static_cast<long>(start));
    const auto base =
        core::EmpiricalPriceDistribution::from_history(history, 12);
    const std::size_t T = kCapacitatedSrrpStages;
    const std::vector<double> bids(T, rrp::stats::mean(history));
    std::vector<std::size_t> widths(T, 1);
    widths[0] = 3;
    widths[1] = 2;
    const auto supports =
        core::make_stage_supports(base, bids, lambda, widths);
    SolveCase c;
    c.kind = SolveKind::CapacitatedSrrp;
    c.srrp.vm = market::VmClass::C1Medium;
    c.srrp.tree = core::ScenarioTree::build(supports);
    c.srrp.demand = core::generate_demand(T, core::DemandConfig{}, rng);
    c.srrp.bottleneck_rate = 1.0;
    for (double d : c.srrp.demand)
      c.srrp.bottleneck_capacity.push_back(d +
                                           kCapacityHeadroom * rng.uniform());
    w.solves.push_back(std::move(c));
  }

  // The uncapacitated instance `rrp plan --solver milp` solves.
  SolveCase u;
  u.kind = SolveKind::UncapacitatedDrrp;
  u.drrp.vm = market::VmClass::M1Large;
  u.drrp.demand =
      core::generate_demand(kUncapacitatedHours, core::DemandConfig{}, rng);
  u.drrp.compute_price.assign(kUncapacitatedHours,
                              market::info(u.drrp.vm).on_demand_hourly);
  w.solves.push_back(std::move(u));
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "predict-refresh") return predict_refresh(seed);
  if (name == "expmean-tree") return expmean_tree(seed);
  if (name == "hostile-market") return hostile_market(seed);
  if (name == "capacitated-milp") return capacitated_milp(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// --- Span output ------------------------------------------------------

/// Streams recorded spans to a Chrome trace-event file, one flush per
/// root call, so the recorder's ring never has to hold a whole pass.
class SpanSink {
 public:
  explicit SpanSink(const std::string& path) : out_(path) {
    if (!out_) throw std::runtime_error("cannot open " + path);
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  }
  ~SpanSink() { out_ << "\n]}\n"; }
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  void flush() {
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    for (const obs::SpanRecord& s : rec.collect()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{",
                    first_ ? "" : ",\n", s.name, s.start_seconds * 1e6,
                    s.dur_seconds * 1e6, s.tid);
      out_ << buf;
      for (std::uint32_t i = 0; i < s.num_args; ++i) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", i ? "," : "",
                      s.args[i].key, s.args[i].value);
        out_ << buf;
      }
      out_ << "}}";
      first_ = false;
    }
    rec.clear();
  }

 private:
  std::ofstream out_;
  bool first_ = true;
};

SpanSink* g_sink = nullptr;  ///< set only while a traced pass runs

/// Times one root call; with tracing on, also records it as a root span
/// and flushes its spans to the sink.
template <class F>
auto root_call(const char* span_name, double& seconds, F&& f) {
  struct Flush {
    ~Flush() {
      if (g_sink != nullptr) g_sink->flush();
    }
  } flush;
  obs::TraceSpan span(span_name);
  const double t0 = now_s();
  auto result = f();
  seconds = now_s() - t0;
  return result;
}

// --- Suite execution --------------------------------------------------

/// Registry counters read as per-pass deltas.
const char* const kCounters[] = {
    "rrp.ts.sarima_fit_evaluations", "rrp.bnb.nodes",
    "rrp.bnb.warm_nodes",            "rrp.bnb.cold_nodes",
    "rrp.bnb.cuts_added",            "rrp.lp.pivots.primal",
    "rrp.lp.pivots.dual",            "rrp.lp.refactorizations",
};

std::map<std::string, double> counter_snapshot() {
  std::map<std::string, double> out;
  for (const char* name : kCounters)
    out[name] = static_cast<double>(
        obs::global_registry().counter(name).value());
  return out;
}

/// One pass over the suite: timings, output checks, quality sums, and
/// the deterministic outputs later passes must reproduce bit for bit.
struct Pass {
  std::vector<double> calls;      ///< seconds of each timed API call
  std::size_t slots = 0;          ///< simulated or planned slots
  std::vector<double> decisions;  ///< replan / solve seconds
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  double cost = 0.0;       ///< realised (simulated) or planned cost
  double reference = 0.0;  ///< ideal case / uncapacitated optimum
  std::size_t cost_items = 0;
  double bid_sq_error = 0.0;
  std::size_t bids = 0;
  double work_lost = 0.0;
  std::size_t rentals = 0;

  std::vector<double> fingerprint;
  std::map<std::string, double> counters;  ///< registry deltas
  std::map<std::string, double> results;   ///< summed result telemetry
  std::vector<core::SimulationResult> sims;  ///< kept for probe replay

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// On-demand rentals (the no-plan and on-demand policies) run no auction.
bool bid_placed(const core::PolicyConfig& p) {
  return p.bids != core::BidStrategy::OnDemandAlways;
}

/// Output checks on one simulation; returns the first failure, if any.
std::optional<std::string> check_simulation(const core::SimulationResult& r,
                                            double ideal, double wall) {
  if (!r.fallbacks.empty())
    return std::to_string(r.fallbacks.size()) + " degraded replans";
  double paid = 0.0;
  for (const core::SlotRecord& s : r.slots)
    if (s.rented) paid += s.price_paid;
  if (paid != r.cost.compute) return "cost.compute != sum of price_paid";
  if (r.total_cost() < ideal * (1.0 - 1e-12))
    return "realised cost below ideal_case_cost";
  double replan_total = 0.0;
  for (double s : r.replan_seconds) replan_total += s;
  if (replan_total > wall) return "replan_seconds exceed the call's wall time";
  return std::nullopt;
}

void run_simulations(const Workload& w, Pass& pass, bool keep) {
  std::vector<double> ideals(w.inputs.size());
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    ++pass.attempted;
    try {
      double s = 0.0;
      ideals[i] = root_call("bench.ideal_case_cost", s, [&] {
        return core::ideal_case_cost(w.inputs[i]);
      });
      pass.calls.push_back(s);
      pass.fingerprint.push_back(ideals[i]);
    } catch (const std::exception& e) {
      pass.fail(std::string("ideal_case_cost threw: ") + e.what());
      ideals[i] = std::nan("");
    }
  }
  for (const SimCase& c : w.sims) {
    ++pass.attempted;
    const core::SimulationInputs& in = w.inputs[c.input];
    core::SimulationResult r;
    double wall = 0.0;
    try {
      r = root_call("bench.simulate_policy", wall,
                    [&] { return core::simulate_policy(in, c.policy); });
    } catch (const std::exception& e) {
      pass.fail(c.policy.name + ": simulate_policy threw: " + e.what());
      continue;
    }
    pass.calls.push_back(wall);
    pass.slots += in.horizon();
    pass.decisions.insert(pass.decisions.end(), r.replan_seconds.begin(),
                          r.replan_seconds.end());
    if (auto bad = check_simulation(r, ideals[c.input], wall))
      pass.fail(c.policy.name + ": " + *bad);

    pass.cost += r.total_cost();
    pass.reference += ideals[c.input];
    ++pass.cost_items;
    pass.work_lost += r.work_lost;
    for (std::size_t t = 0; t < r.slots.size(); ++t) {
      const core::SlotRecord& s = r.slots[t];
      if (!s.rented) continue;
      ++pass.rentals;
      if (!bid_placed(c.policy)) continue;
      const double err = s.bid - in.actual_spot[t];
      pass.bid_sq_error += err * err;
      ++pass.bids;
    }
    auto& res = pass.results;
    res["refits_kept"] += static_cast<double>(r.sarima_refits_kept);
    res["refits_warm"] += static_cast<double>(r.sarima_warm_refits);
    res["refits_scratch"] += static_cast<double>(r.sarima_scratch_refits);
    res["tree_repairs"] += static_cast<double>(r.tree_repairs);
    res["tree_rebuilds"] += static_cast<double>(r.tree_rebuilds);
    res["replans"] += static_cast<double>(r.replan_seconds.size());
    res["revoked_slots"] += static_cast<double>(r.revoked_slots());
    res["recovered_spot"] += static_cast<double>(r.recovered_spot);
    res["recovered_migration"] += static_cast<double>(r.recovered_migration);
    res["recovered_on_demand"] += static_cast<double>(r.recovered_on_demand);
    res["work_lost"] += r.work_lost;
    pass.fingerprint.insert(
        pass.fingerprint.end(),
        {r.total_cost(), r.work_lost,
         static_cast<double>(r.sarima_refits_kept),
         static_cast<double>(r.sarima_warm_refits),
         static_cast<double>(r.sarima_scratch_refits),
         static_cast<double>(r.tree_repairs),
         static_cast<double>(r.tree_rebuilds),
         static_cast<double>(r.revoked_slots())});
    if (keep) pass.sims.push_back(std::move(r));
  }
}

/// Inventory balance and bottleneck checks on a DRRP plan.
std::optional<std::string> check_drrp_plan(const core::DrrpInstance& inst,
                                           const core::RentalPlan& plan) {
  const std::size_t T = inst.horizon();
  if (plan.alpha.size() != T || plan.beta.size() != T || plan.chi.size() != T)
    return "plan has the wrong horizon";
  double prev = inst.initial_storage;
  for (std::size_t t = 0; t < T; ++t) {
    const double tol = 1e-6 * std::max(1.0, inst.demand[t]);
    if (std::fabs(prev + plan.alpha[t] - plan.beta[t] - inst.demand[t]) > tol)
      return "inventory balance violated at slot " + std::to_string(t);
    if (plan.alpha[t] > 1e-9 && !plan.chi[t])
      return "generation without rental at slot " + std::to_string(t);
    if (!inst.bottleneck_capacity.empty() &&
        inst.bottleneck_rate * plan.alpha[t] >
            inst.bottleneck_capacity[t] + 1e-6)
      return "alpha above the bottleneck at slot " + std::to_string(t);
    prev = plan.beta[t];
  }
  return std::nullopt;
}

/// The same checks per vertex of an SRRP policy.
std::optional<std::string> check_srrp_policy(const core::SrrpInstance& inst,
                                             const core::SrrpPolicy& pol) {
  const core::ScenarioTree& tree = inst.tree;
  if (pol.alpha.size() != tree.num_vertices())
    return "policy has the wrong vertex count";
  for (std::size_t v = 1; v < tree.num_vertices(); ++v) {
    const core::ScenarioVertex& vx = tree.vertex(v);
    const double prev =
        vx.parent == tree.root() ? inst.initial_storage : pol.beta[vx.parent];
    const double d = inst.demand_at_vertex(v);
    if (std::fabs(prev + pol.alpha[v] - pol.beta[v] - d) >
        1e-6 * std::max(1.0, d))
      return "inventory balance violated at vertex " + std::to_string(v);
    if (pol.alpha[v] > 1e-9 && !pol.chi[v])
      return "generation without rental at vertex " + std::to_string(v);
    if (inst.bottleneck_rate * pol.alpha[v] >
        inst.bottleneck_capacity[vx.stage - 1] + 1e-6)
      return "alpha above the bottleneck at vertex " + std::to_string(v);
  }
  return std::nullopt;
}

double uncapacitated_optimum(core::DrrpInstance inst) {
  inst.bottleneck_rate = 0.0;
  inst.bottleneck_capacity.clear();
  return core::solve_drrp_wagner_whitin(inst).cost.total();
}

void record_milp(Pass& pass, std::size_t nodes, std::size_t cuts,
                 double root_gap_closed) {
  pass.results["root_gap_closed_sum"] += root_gap_closed;
  pass.results["root_gap_closed_n"] += 1.0;
  pass.fingerprint.insert(pass.fingerprint.end(),
                          {static_cast<double>(nodes),
                           static_cast<double>(cuts), root_gap_closed});
}

void run_solves(const Workload& w, Pass& pass) {
  for (const SolveCase& c : w.solves) {
    ++pass.attempted;
    double s = 0.0;
    try {
      if (c.kind == SolveKind::CapacitatedSrrp) {
        const core::SrrpPolicy pol = root_call(
            "bench.solve_srrp", s, [&] { return core::solve_srrp(c.srrp); });
        pass.calls.push_back(s);
        pass.decisions.push_back(s);
        pass.slots += c.srrp.horizon();
        record_milp(pass, pol.nodes_explored, pol.cuts_added,
                    pol.root_gap_closed);
        pass.fingerprint.push_back(pol.expected_cost);
        if (!pol.feasible()) {
          pass.fail(std::string("solve_srrp: ") + milp::to_string(pol.status));
        } else if (auto bad = check_srrp_policy(c.srrp, pol)) {
          pass.fail("solve_srrp: " + *bad);
        }
        continue;
      }
      const core::RentalPlan plan = root_call(
          "bench.solve_drrp", s, [&] { return core::solve_drrp(c.drrp); });
      pass.calls.push_back(s);
      pass.decisions.push_back(s);
      pass.slots += c.drrp.horizon();
      record_milp(pass, plan.nodes_explored, plan.cuts_added,
                  plan.root_gap_closed);
      pass.fingerprint.push_back(plan.cost.total());
      if (!plan.feasible()) {
        pass.fail(std::string("solve_drrp: ") + milp::to_string(plan.status));
        continue;
      }
      if (auto bad = check_drrp_plan(c.drrp, plan)) {
        pass.fail("solve_drrp: " + *bad);
        continue;
      }
      const double bound = uncapacitated_optimum(c.drrp);
      if (c.kind == SolveKind::UncapacitatedDrrp &&
          std::fabs(plan.cost.total() - bound) > 1e-6 * std::fabs(bound)) {
        pass.fail("uncapacitated MILP cost differs from Wagner-Whitin");
        continue;
      }
      pass.cost += plan.cost.total();
      pass.reference += bound;
      ++pass.cost_items;
      for (std::size_t t = 0; t < c.realised.size(); ++t) {
        if (!plan.chi[t]) continue;
        ++pass.rentals;
        const double err = c.drrp.compute_price[t] - c.realised[t];
        pass.bid_sq_error += err * err;
        ++pass.bids;
      }
    } catch (const std::exception& e) {
      pass.fail(std::string("solve threw: ") + e.what());
    }
  }
}

Pass run_pass(const Workload& w, bool keep) {
  const auto before = counter_snapshot();
  Pass pass;
  run_simulations(w, pass, keep);
  run_solves(w, pass);
  const auto after = counter_snapshot();
  for (const auto& [name, v] : after) {
    pass.counters[name] = v - before.at(name);
    pass.fingerprint.push_back(v - before.at(name));
  }
  return pass;
}

// --- Probe replay (traced runs) ---------------------------------------

struct ProbeTotals {
  double tree_vertices = 0.0;
  std::size_t trees = 0;
  std::size_t mismatches = 0;
};

/// Times one library call as its own root span.
template <class F>
auto probe(const char* span_name, F&& f) {
  double s = 0.0;
  return root_call(span_name, s, std::forward<F>(f));
}

/// Replays one simulation's decisions through the layers that have no
/// span inside the library, on the same instance shapes: for
/// expected-mean and on-demand bids the replayed instances are exactly
/// the simulator's; SARIMA bids are replaced by the window mean, which
/// keeps every shape (horizon, tree widths, inventory) unchanged.
void replay(const core::SimulationInputs& in, const core::PolicyConfig& p,
            const core::SimulationResult& r, ProbeTotals& totals) {
  const std::size_t T = in.horizon();
  const double lambda = market::info(in.vm).on_demand_hourly;

  if (in.revocation.enabled) {
    probe("bench.probe.revocation", [&] {
      const market::RevocationModel model(in.revocation, T);
      std::size_t revoked = 0;
      for (std::size_t t = 0; t < T; ++t) {
        const core::SlotRecord& s = r.slots[t];
        if (!s.rented || !s.spot) continue;
        const double slot_max =
            t < in.intra_slot_max.size()
                ? std::max(in.intra_slot_max[t], in.actual_spot[t])
                : in.actual_spot[t];
        if (model.revocation(t, s.bid, slot_max).has_value()) {
          ++revoked;
          (void)model.preserved_work(model.interruption_fraction(t));
        }
      }
      return revoked;
    });
  }
  if (p.planner == core::PlannerKind::NoPlan) return;

  const std::size_t window = std::min(p.fit_window, in.history.size());
  const std::vector<double> fit(in.history.end() - static_cast<long>(window),
                                in.history.end());
  const bool refresh = p.model_update_every > 0 &&
                       p.replan_mode == core::ReplanMode::Incremental;
  std::optional<core::SlidingEmpiricalDistribution> sliding;
  if (refresh) {
    sliding.emplace(p.fit_window);
    for (double v : fit) sliding->push(v);
  }
  double mean = rrp::stats::mean(fit);
  core::EmpiricalPriceDistribution base =
      core::EmpiricalPriceDistribution::from_history(fit,
                                                     p.distribution_support);
  std::optional<core::MarkovPriceModel> markov;
  if (p.planner == core::PlannerKind::Srrp && p.markov_tree)
    markov = core::MarkovPriceModel::fit(fit, p.distribution_support);
  double last_price = fit.back();
  std::optional<core::ScenarioTree> cached;
  std::size_t replans = 0;

  for (std::size_t t = 0; t < T; ++t) {
    if (t % p.replan_every == 0) {
      const std::size_t w = std::min(p.lookahead, T - t);
      if (refresh && replans > 0 && replans % p.model_update_every == 0) {
        mean = sliding->mean();
        base = probe("bench.probe.snapshot", [&] {
          return sliding->snapshot(p.distribution_support);
        });
        if (markov.has_value()) {
          const std::vector<double> tail = sliding->window();
          markov = probe("bench.probe.markov_fit", [&] {
            return core::MarkovPriceModel::fit(tail, p.distribution_support);
          });
        }
      }
      ++replans;
      const double store =
          t == 0 ? in.initial_storage : r.slots[t - 1].inventory;
      const std::vector<double> estimates(
          w, p.bids == core::BidStrategy::OnDemandAlways ? lambda : mean);
      if (p.planner == core::PlannerKind::Drrp) {
        core::DrrpInstance inst;
        inst.vm = in.vm;
        inst.demand.assign(in.demand.begin() + static_cast<long>(t),
                           in.demand.begin() + static_cast<long>(t + w));
        inst.compute_price = estimates;
        inst.costs = in.costs;
        inst.initial_storage = store;
        probe("bench.probe.wagner_whitin",
              [&] { return core::solve_drrp_wagner_whitin(inst); });
      } else {
        std::vector<std::size_t> widths(w, 1);
        for (std::size_t i = 0; i < w && i < p.stage_widths.size(); ++i)
          widths[i] = p.stage_widths[i];
        core::SrrpInstance inst;
        inst.vm = in.vm;
        inst.demand.assign(in.demand.begin() + static_cast<long>(t),
                           in.demand.begin() + static_cast<long>(t + w));
        if (markov.has_value()) {
          inst.tree = probe("bench.probe.markov_build_tree", [&] {
            return markov->build_tree(last_price, estimates, lambda, widths);
          });
        } else {
          const auto supports = probe("bench.probe.stage_supports", [&] {
            return core::make_stage_supports(base, estimates, lambda, widths);
          });
          bool repaired = false;
          if (p.replan_mode == core::ReplanMode::Incremental &&
              cached.has_value()) {
            inst.tree = *cached;
            repaired = probe("bench.probe.tree_repair",
                             [&] { return inst.tree.repair(supports); });
          }
          if (!repaired)
            inst.tree = probe("bench.probe.tree_build", [&] {
              return core::ScenarioTree::build(supports);
            });
        }
        inst.costs = in.costs;
        inst.initial_storage = store;
        probe("bench.probe.srrp_dp",
              [&] { return core::solve_srrp_tree_dp(inst); });
        totals.tree_vertices += static_cast<double>(inst.tree.num_vertices());
        ++totals.trees;
        cached = std::move(inst.tree);
      }
    }
    last_price = in.actual_spot[t];
    if (sliding.has_value()) sliding->push(in.actual_spot[t]);
  }
  if (replans != r.replan_seconds.size()) ++totals.mismatches;
}

// --- Output -----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += quote(k) + ":" + num(v);
  }
  return out + "}";
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? "," : "") + num(v[i]);
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// FNV-1a over the bit patterns of the deterministic outputs.
std::string digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    throw std::invalid_argument("--workload, --seed and --seconds are required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (o.trace && o.trace_out.empty())
    throw std::invalid_argument("--trace 1 needs --trace-out");
  return o;
}

/// Every timed call and every decision of the suite at its fastest over
/// the run's passes.  The work of a call is identical in every pass, but
/// the machine's speed drifts by 20-40% over a few seconds when other
/// tenants load it; a call's fastest pass is the steadiest estimate of
/// what the call itself costs.
struct Fastest {
  std::vector<double> calls;
  std::vector<double> decisions;

  void add(const Pass& pass) {
    if (calls.empty()) {
      calls = pass.calls;
      decisions = pass.decisions;
      return;
    }
    // A pass with other work fails the fingerprint check instead.
    if (pass.calls.size() != calls.size() ||
        pass.decisions.size() != decisions.size())
      return;
    for (std::size_t i = 0; i < calls.size(); ++i)
      calls[i] = std::min(calls[i], pass.calls[i]);
    for (std::size_t i = 0; i < decisions.size(); ++i)
      decisions[i] = std::min(decisions[i], pass.decisions[i]);
  }

  double call_seconds() const {
    double total = 0.0;
    for (double s : calls) total += s;
    return total;
  }
};

/// Failure accounting over the run; later passes must reproduce the
/// first pass's deterministic outputs exactly.
struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::size_t passes = 0;

  void add(const Pass& pass, const Pass& first) {
    ++passes;
    attempted += pass.attempted;
    failed += pass.failed;
    for (const auto& f : pass.failures)
      if (failures.size() < 20) failures.push_back(f);
    if (&pass != &first && pass.fingerprint != first.fingerprint) {
      // The whole pass disagrees with the first: count one failure per
      // attempted call so the fraction shows it.
      failed += pass.attempted;
      failures.push_back("pass outputs differ from the first pass");
    }
  }
};

int run(const Options& opt) {
  // Set-up is measured several times, the repetitions spread evenly over
  // the run (setup_s is their median); the first repetition's inputs are
  // the ones used.
  std::vector<double> setup_seconds;
  const auto timed_setup = [&] {
    const double s0 = now_s();
    Workload w = make_workload(opt.workload, opt.seed);
    setup_seconds.push_back(now_s() - s0);
    return w;
  };
  const Workload workload = timed_setup();

  Totals totals;
  Fastest fastest;
  std::ostringstream extra;
  const double t0 = now_s();
  const Pass first = run_pass(workload, false);
  if (first.decisions.size() < kMinDecisions)
    throw std::logic_error("the suite makes fewer decisions than p95 needs");
  totals.add(first, first);
  fastest.add(first);
  if (!opt.trace) {
    const double setup_every =
        opt.seconds / static_cast<double>(kSetupRepeats);
    while (now_s() - t0 < opt.seconds ||
           (totals.passes < kMinPasses && now_s() - t0 < kMaxSeconds)) {
      const Pass pass = run_pass(workload, false);
      totals.add(pass, first);
      fastest.add(pass);
      const double next_setup =
          setup_every * static_cast<double>(setup_seconds.size());
      if (setup_seconds.size() < kSetupRepeats && now_s() - t0 >= next_setup)
        timed_setup();
    }
    while (setup_seconds.size() < kSetupRepeats) timed_setup();
    extra << ",\"quality\":{"
          << "\"cost\":" << num(first.cost)
          << ",\"reference\":" << num(first.reference)
          << ",\"cost_items\":" << first.cost_items
          << ",\"bid_sq_error\":" << num(first.bid_sq_error)
          << ",\"bids\":" << first.bids
          << ",\"work_lost\":" << num(first.work_lost)
          << ",\"rentals\":" << first.rentals << "}"
          << ",\"digest\":" << quote(digest(first.fingerprint))
          << ",\"counters\":" << object(first.counters)
          << ",\"results\":" << object(first.results);
  } else {
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    rec.set_ring_capacity(kRingCapacity);
    SpanSink sink(opt.trace_out);
    Fastest traced;
    std::vector<Pass> traced_runs;
    std::map<std::string, double> counters, results;
    for (bool more = true; more; more = now_s() - t0 < opt.seconds) {
      if (!traced_runs.empty()) {
        const Pass u = run_pass(workload, false);
        totals.add(u, first);
        fastest.add(u);
      }
      rec.enable();
      g_sink = &sink;
      Pass t = run_pass(workload, true);
      g_sink = nullptr;
      rec.disable();
      totals.add(t, first);
      traced.add(t);
      for (const auto& [k, v] : t.counters) counters[k] += v;
      for (const auto& [k, v] : t.results) results[k] += v;
      traced_runs.push_back(std::move(t));
    }
    // The probe replay runs after the timed passes, so untraced and
    // traced passes alternate under the same conditions.
    ProbeTotals probes;
    rec.enable();
    g_sink = &sink;
    for (const Pass& t : traced_runs) {
      // A simulation that threw has no result; the pass already failed.
      if (t.sims.size() != workload.sims.size()) continue;
      for (std::size_t i = 0; i < t.sims.size(); ++i) {
        const SimCase& c = workload.sims[i];
        replay(workload.inputs[c.input], c.policy, t.sims[i], probes);
      }
    }
    g_sink = nullptr;
    rec.disable();
    const std::size_t traced_passes = traced_runs.size();
    if (probes.mismatches > 0) {
      totals.failed += probes.mismatches;
      totals.failures.push_back("probe replay disagrees with replan count");
    }
    const double n = static_cast<double>(traced_passes);
    for (auto& [k, v] : counters) v /= n;
    for (auto& [k, v] : results) v /= n;
    extra << ",\"traced_passes\":" << traced_passes
          << ",\"untraced_pass_s\":" << num(fastest.call_seconds())
          << ",\"traced_pass_s\":" << num(traced.call_seconds())
          << ",\"spans_dropped\":" << rec.dropped()
          << ",\"tree_vertices_mean\":"
          << num(probes.trees ? probes.tree_vertices /
                                    static_cast<double>(probes.trees)
                              : 0.0)
          << ",\"counters\":" << object(counters)
          << ",\"results\":" << object(results);
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < totals.failures.size(); ++i)
    failures += (i ? "," : "") + quote(totals.failures[i]);
  failures += "]";
  std::cout << "{\"workload\":" << quote(opt.workload)
            << ",\"seed\":" << opt.seed << ",\"trace\":" << opt.trace
            << ",\"attempted\":" << totals.attempted
            << ",\"failed\":" << totals.failed << ",\"failures\":" << failures
            << ",\"passes\":" << totals.passes
            << ",\"setup_s\":" << array(setup_seconds)
            << ",\"call_seconds\":" << num(fastest.call_seconds())
            << ",\"slots\":" << first.slots
            << ",\"decisions\":" << fastest.decisions.size()
            << ",\"decision_p50_s\":"
            << num(core::latency_percentile(fastest.decisions, 50.0))
            << ",\"decision_p95_s\":"
            << num(core::latency_percentile(fastest.decisions, 95.0))
            << ",\"peak_rss_mb\":" << num(peak_rss_mb()) << extra.str()
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rrp_e2e: " << e.what() << "\n";
    return 2;
  }
}
