#include "core/srrp_dp.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>

#include "common/error.hpp"

namespace rrp::core {

namespace {

constexpr double kEps = 1e-9;

/// DP engine over (vertex, entering inventory).
class TreeDp {
 public:
  TreeDp(const SrrpInstance& inst, const common::Deadline& deadline)
      : inst_(inst),
        deadline_(deadline),
        tree_(inst.tree),
        V_(tree_.num_vertices()) {
    cum_.assign(V_, 0.0);
    for (std::size_t u = 1; u < V_; ++u) {
      const auto& vert = tree_.vertex(u);
      const double parent_cum =
          vert.parent == tree_.root() ? 0.0 : cum_[vert.parent];
      cum_[u] = parent_cum + demand_at(u);
    }
    // Descendants of each vertex (for production-level candidates).
    descendants_.assign(V_, {});
    for (std::size_t u = V_; u-- > 1;) {
      descendants_[u].push_back(u);
      for (std::size_t c : tree_.children(u)) {
        descendants_[u].insert(descendants_[u].end(),
                               descendants_[c].begin(),
                               descendants_[c].end());
      }
    }
    memo_.resize(V_);
  }

  SrrpPolicy run() {
    SrrpPolicy policy;
    policy.status = milp::MipStatus::Optimal;
    policy.alpha.assign(V_, 0.0);
    policy.beta.assign(V_, 0.0);
    policy.chi.assign(V_, 0);

    double total = 0.0;
    for (std::size_t c : tree_.children(tree_.root()))
      total += value(c, inst_.initial_storage);
    policy.expected_cost = total;

    for (std::size_t c : tree_.children(tree_.root()))
      extract(c, inst_.initial_storage, policy);
    return policy;
  }

 private:
  double demand_at(std::size_t u) const {
    return inst_.demand_at_vertex(u);
  }
  double prob(std::size_t u) const { return tree_.vertex(u).path_prob; }
  std::size_t slot_of(std::size_t u) const {
    return tree_.vertex(u).stage - 1;
  }

  static std::int64_t key_of(double x) {
    return static_cast<std::int64_t>(std::llround(x * 1e9));
  }

  struct Entry {
    double value = std::numeric_limits<double>::infinity();
    // Decision: produce up to level `level` (chi = 1) or pass through
    // (produce = false; requires x >= demand).
    bool produce = false;
    double level = 0.0;
  };

  /// Cost of serving vertex u's subtree given entering inventory x.
  double value(std::size_t u, double x) {
    auto& table = memo_[u];
    const auto it = table.find(key_of(x));
    if (it != table.end()) return it->second.value;

    // One poll per uncached state, the unit of real DP work (cache hits
    // stay poll-free so a memo-heavy solve costs no clock reads).
    if (deadline_.expired()) {
      throw TimeLimitExceeded(
          "solve_srrp_tree_dp: deadline expired while evaluating vertex " +
          std::to_string(u));
    }

    const double d = demand_at(u);
    const double p = prob(u);
    const std::size_t slot = slot_of(u);
    const double delivery = p * inst_.costs.delivery_cost(d, slot);
    const double hold_price = p * inst_.costs.holding(slot);
    const double gen_unit = p * inst_.costs.transfer_in(slot) *
                            inst_.costs.input_output_ratio();
    const double rent = p * tree_.vertex(u).price;

    Entry best;
    // Option 1: no production; feasible when inventory covers demand.
    if (x + kEps >= d) {
      const double out = std::max(x - d, 0.0);
      double cost = delivery + hold_price * out;
      for (std::size_t c : tree_.children(u)) cost += value(c, out);
      if (cost < best.value) {
        best.value = cost;
        best.produce = false;
        best.level = out;
      }
    }
    // Option 2: produce up to an exact path-demand level D(u..w).
    for (std::size_t w : descendants_[u]) {
      const double level = cum_[w] - (cum_[u] - d);  // D(path u..w)
      if (level <= x + kEps) continue;  // nothing to produce
      const double out = level - d;
      double cost = delivery + rent + gen_unit * (level - x) +
                    hold_price * out;
      for (std::size_t c : tree_.children(u)) cost += value(c, out);
      if (cost < best.value) {
        best.value = cost;
        best.produce = true;
        best.level = level;
      }
    }
    RRP_ENSURES(best.value < std::numeric_limits<double>::infinity());
    table.emplace(key_of(x), best);
    return best.value;
  }

  void extract(std::size_t u, double x, SrrpPolicy& policy) {
    const Entry& e = memo_[u].at(key_of(x));
    const double d = demand_at(u);
    double out;
    if (e.produce) {
      policy.chi[u] = 1;
      policy.alpha[u] = e.level - x;
      out = e.level - d;
    } else {
      policy.alpha[u] = 0.0;
      out = std::max(x - d, 0.0);
    }
    policy.beta[u] = out;
    for (std::size_t c : tree_.children(u)) extract(c, out, policy);
  }

  const SrrpInstance& inst_;
  const common::Deadline& deadline_;
  const ScenarioTree& tree_;
  std::size_t V_;
  std::vector<double> cum_;  ///< demand sum along the root path, per vertex
  std::vector<std::vector<std::size_t>> descendants_;
  std::vector<std::unordered_map<std::int64_t, Entry>> memo_;
};

}  // namespace

SrrpPolicy solve_srrp_tree_dp(const SrrpInstance& inst,
                              const common::Deadline& deadline) {
  inst.validate();
  if (inst.capacitated()) {
    throw InvalidArgument(
        "the tree DP requires an uncapacitated instance; use the MILP "
        "for bottleneck-constrained planning");
  }
  TreeDp dp(inst, deadline);
  return dp.run();
}

}  // namespace rrp::core
