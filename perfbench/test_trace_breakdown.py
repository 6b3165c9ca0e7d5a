#!/usr/bin/env python3
"""Self-time folding tests on synthetic span lists.

    python3 perfbench/test_trace_breakdown.py
"""

import unittest

from trace_breakdown import fold, layer_of


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


class FoldTest(unittest.TestCase):
    def assert_accounts(self, b):
        self.assertAlmostEqual(b.accounted_us(), b.wall_us, places=9)

    def test_nesting_subtracts_children_at_every_depth(self):
        b = fold([
            span("rh.simulate", 0, 100),
            span("rh.replan", 10, 50),
            span("ts.warm_refit", 20, 30),
            span("ts.fit_sarima", 25, 20),
        ])
        self.assertEqual(b.wall_us, 100)
        self.assertEqual(b.self_us["rh.simulate"], 50)
        self.assertEqual(b.self_us["rh.replan"], 20)
        self.assertEqual(b.self_us["ts.warm_refit"], 10)
        self.assertEqual(b.self_us["ts.fit_sarima"], 20)
        self.assertEqual(b.layer_self_us["timeseries"], 30)
        self.assertEqual(b.layer_self_us["unattributed"], 70)
        self.assert_accounts(b)

    def test_threads_fold_independently(self):
        # Identical intervals on two threads must not nest into each other.
        b = fold([
            span("bnb.solve", 0, 10, tid=0),
            span("lp.warm_solve", 2, 4, tid=0),
            span("bnb.solve", 0, 10, tid=1),
            span("lp.warm_solve", 5, 5, tid=1),
        ])
        self.assertEqual(b.wall_us, 20)
        self.assertEqual(b.layer_self_us["lp"], 9)
        self.assertEqual(b.layer_self_us["milp"], 11)
        self.assert_accounts(b)

    def test_harness_roots_probes_and_gaps(self):
        # A gap inside a root call lands in unattributed time; the gap
        # between root spans is not traced wall time at all.
        b = fold([
            span("bench.simulate_policy", 0, 40),
            span("rh.replan", 5, 10),
            span("tree.repair", 6, 2),
            span("bench.probe.srrp_dp", 100, 7),
            span("bench.probe.snapshot", 200, 3),
        ])
        self.assertEqual(b.wall_us, 50)
        self.assertEqual(b.layer_self_us["unattributed"], 38)
        self.assertEqual(b.layer_self_us["scenario_tree"], 2)
        self.assertEqual(b.layer_self_us["srrp_dp"], 7)
        self.assertEqual(b.layer_self_us["price_distribution"], 3)
        self.assertEqual(b.root_us["bench.simulate_policy"], 40)
        self.assert_accounts(b)

    def test_sibling_starting_at_parent_end_is_not_a_child(self):
        b = fold([span("bnb.node", 0, 5), span("bnb.node", 5, 5)])
        self.assertEqual(b.wall_us, 10)
        self.assertEqual(b.self_us["bnb.node"], 10)

    def test_rounding_overrun_is_clipped_to_the_parent(self):
        b = fold([span("lp.cold_solve", 0, 10), span("lp.refactor", 8, 2.001)])
        self.assertAlmostEqual(b.self_us["lp.refactor"], 2.0)
        self.assertAlmostEqual(b.self_us["lp.cold_solve"], 8.0)
        self.assert_accounts(b)

    def test_layer_map(self):
        self.assertEqual(layer_of("bench.probe.tree_repair"), "scenario_tree")
        self.assertEqual(layer_of("bench.probe.markov_fit"), "markov_prices")
        self.assertEqual(layer_of("bench.solve_drrp"), "unattributed")
        self.assertEqual(layer_of("cuts.separate"), "milp")
        self.assertEqual(layer_of("ts.online_regularize"), "timeseries")
        self.assertEqual(layer_of("new.span"), "other")


if __name__ == "__main__":
    unittest.main()
