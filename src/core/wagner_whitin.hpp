// Exact Wagner-Whitin dynamic program for DRRP.
//
// The paper notes that DRRP "is consistent with the dynamic lot-sizing
// problem commonly met in the field of production planning"; when the
// bottleneck constraint (3) is inactive (as in the paper's evaluation),
// the instance is an *uncapacitated* single-item lot-sizing problem and
// the classic Wagner-Whitin zero-inventory-ordering property applies:
// an optimal plan generates data only in slots where inventory has run
// out, and each generation covers a consecutive block of future demand.
// That yields an O(T^2) dynamic program producing the same optimum as
// the MILP — solve_drrp's path for every uncapacitated instance, and an
// independent oracle for the MILP in the test suite.
#pragma once

#include "common/deadline.hpp"
#include "core/drrp.hpp"

namespace rrp::core {

/// Solves the instance exactly by dynamic programming.  Requires the
/// bottleneck constraint to be inactive (bottleneck_rate == 0 or no
/// capacities); throws InvalidArgument otherwise.  The deadline is
/// polled once per DP stage; on expiry the solve throws
/// rrp::TimeLimitExceeded (an exact DP has no sound partial answer).
RentalPlan solve_drrp_wagner_whitin(
    const DrrpInstance& instance,
    const common::Deadline& deadline = common::Deadline::unlimited());

}  // namespace rrp::core
