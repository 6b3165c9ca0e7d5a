// Ablation — exact DRRP solvers (DESIGN.md decisions 1 & 2).
//
// Compares, on one uncapacitated DRRP instance, the paper's MILP
// (tight per-slot big-B, root (l,S) cuts, branch & bound) and the
// Wagner-Whitin dynamic program.  Both are exact; the point is the
// orders-of-magnitude difference in effort.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/deadline.hpp"
#include "common/table.hpp"
#include "core/demand.hpp"
#include "core/wagner_whitin.hpp"

int main() {
  using namespace rrp;
  const common::Clock& clock = common::real_clock();
  Rng rng(2222);
  const std::size_t kHorizon = 14;
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(kHorizon, core::DemandConfig{}, rng);
  inst.compute_price.assign(kHorizon, 0.4);

  Table table("Ablation: exact DRRP solvers (T=" +
              std::to_string(kHorizon) + ")");
  table.set_header({"variant", "optimal cost", "B&B nodes", "time"});

  double t0 = clock.now_seconds();
  const auto milp = core::solve_drrp_milp(inst);
  const double milp_seconds = clock.now_seconds() - t0;
  table.add_row({"paper MILP (1)-(7)", Table::num(milp.cost.total(), 4),
                 std::to_string(milp.nodes_explored),
                 Table::num(milp_seconds * 1e3, 1) + " ms"});

  t0 = clock.now_seconds();
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  const double ww_seconds = clock.now_seconds() - t0;
  table.add_row({"Wagner-Whitin DP", Table::num(ww.cost.total(), 4), "-",
                 Table::num(ww_seconds * 1e3, 3) + " ms"});
  table.print(std::cout);

  const bool equal = std::abs(milp.cost.total() - ww.cost.total()) < 1e-5;
  std::cout << "both optimal-equal: " << (equal ? "yes" : "NO (bug!)")
            << "\n"
            << "takeaway: the paper's formulation is exact but needs branch "
               "& bound; the DP solves the uncapacitated case directly\n";
  return 0;
}
