#!/usr/bin/env python3
"""End-to-end planner benchmark: build, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-determinism

Builds the harness (perfbench/harness.cpp) and the library from ../src
into .bench_build/perfbench, runs it, and prints a table of every metric
followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json; with --trace 1 they are the per-layer ones, folded from
the harness's span file by trace_breakdown.py.  The run is correct when
no call failed or failed an output check, later passes reproduced the
first pass bit for bit, no span was dropped, and the layers account for
the traced wall time.

It exits 0 whenever it printed a result, whose "correct" says whether
the outputs passed their checks, and non-zero when the harness could not
be built or run.

--check-determinism runs every workload twice at the default seed and at
the held-out seed and compares the deterministic outputs exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import trace_breakdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "rrp_e2e"

WORKLOADS = ("predict-refresh", "expmean-tree", "hostile-market",
             "capacitated-milp")
DEFAULT_SEED = 2012
HELDOUT_SEED = 7919  # never used while tuning the benchmark
HARNESS_TIMEOUT_S = 170


def build() -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rrp_e2e",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def run_harness(workload: str, seed: int, seconds: float,
                trace_out: Path | None) -> dict:
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace_out else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=HARNESS_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: harness exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(raw: dict) -> dict:
    q = raw["quality"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "slots_per_s": (ratio(raw["slots"], raw["call_seconds"]), "1/s"),
        "decision_p50_ms": (raw["decision_p50_s"] * 1e3, "ms"),
        "decision_p95_ms": (raw["decision_p95_s"] * 1e3, "ms"),
        "realised_cost_usd": (ratio(q["cost"], q["cost_items"]), "usd"),
        "overpay_pct": (100 * ratio(q["cost"] - q["reference"],
                                    q["reference"]), "pct"),
        "bid_mspe": (ratio(q["bid_sq_error"], q["bids"]), "usd2"),
        "work_kept_frac": (1 - ratio(q["work_lost"], q["rentals"]), "frac"),
        "ok_frac": (1 - ratio(raw["failed"], raw["attempted"]), "frac"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


# ts.warm_refit's "action" arg: SarimaRefitAction::WarmRefit.
WARM_REFIT = 1


def per_layer(raw: dict, events: list,
              b: trace_breakdown.Breakdown) -> dict:
    n = raw["traced_passes"]
    c, r = raw["counters"], raw["results"]

    def incl(name):
        return b.incl_us.get(name, 0.0) / 1e6 / n

    def self_s(name):
        return b.self_us.get(name, 0.0) / 1e6 / n

    def layer(name):
        return b.layer_self_us.get(name, 0.0) / 1e6 / n

    def p50(name, scale):
        d = b.durations_us.get(name)
        return statistics.median(d) * scale if d else 0.0

    warm_refits = [float(e["dur"]) for e in events
                   if e["name"] == "ts.warm_refit"
                   and e.get("args", {}).get("action") == WARM_REFIT]

    def prefixed(prefix):
        return sum(v for k, v in b.self_us.items()
                   if k.startswith(prefix)) / 1e6 / n

    program_s = sum(v for k, v in b.root_us.items()
                    if not k.startswith("bench.probe.")) / 1e6 / n
    solve_s = incl("bench.solve_drrp") + incl("bench.solve_srrp")
    nodes = c["rrp.bnb.nodes"]
    lps = c["rrp.bnb.warm_nodes"] + c["rrp.bnb.cold_nodes"]
    repairs = r.get("tree_repairs", 0.0)
    trees = repairs + r.get("tree_rebuilds", 0.0)
    gaps = r.get("root_gap_closed_n", 0.0)
    return {
        "timeseries.warm_refit_s": (incl("ts.warm_refit"), "s"),
        "timeseries.cold_fit_s": (layer("timeseries") - incl("ts.warm_refit"),
                                  "s"),
        "timeseries.warm_refit_p50_ms": (
            statistics.median(warm_refits) / 1e3 if warm_refits else 0.0,
            "ms"),
        "timeseries.refits_warm": (r.get("refits_warm", 0.0), "count"),
        "timeseries.refits_kept": (r.get("refits_kept", 0.0), "count"),
        "timeseries.refits_scratch": (r.get("refits_scratch", 0.0), "count"),
        "timeseries.css_evals": (c["rrp.ts.sarima_fit_evaluations"], "count"),
        "price_distribution.snapshot_s": (incl("bench.probe.snapshot"), "s"),
        "scenario_tree.supports_s": (incl("bench.probe.stage_supports"), "s"),
        "scenario_tree.build_s": (incl("bench.probe.tree_build"), "s"),
        "scenario_tree.repair_s": (incl("bench.probe.tree_repair"), "s"),
        "scenario_tree.repair_ratio": (ratio(repairs, trees), "frac"),
        "scenario_tree.vertices_mean": (raw["tree_vertices_mean"], "count"),
        "markov_prices.fit_s": (incl("bench.probe.markov_fit"), "s"),
        "markov_prices.build_tree_s": (incl("bench.probe.markov_build_tree"),
                                       "s"),
        "srrp_dp.solve_s": (incl("bench.probe.srrp_dp"), "s"),
        "srrp_dp.solve_p50_us": (p50("bench.probe.srrp_dp", 1.0), "us"),
        "wagner_whitin.solve_s": (incl("bench.probe.wagner_whitin"), "s"),
        "wagner_whitin.solve_p50_us": (p50("bench.probe.wagner_whitin", 1.0),
                                       "us"),
        "rolling_horizon.replan_s": (incl("rh.replan"), "s"),
        "rolling_horizon.replans": (r.get("replans", 0.0), "count"),
        "rolling_horizon.unattributed_s": (layer("unattributed"), "s"),
        "rolling_horizon.unattributed_frac": (
            ratio(layer("unattributed"), program_s), "frac"),
        "revocation.model_s": (incl("bench.probe.revocation"), "s"),
        "revocation.revoked_slots": (r.get("revoked_slots", 0.0), "count"),
        "revocation.recovered_spot": (r.get("recovered_spot", 0.0), "count"),
        "revocation.recovered_migration": (r.get("recovered_migration", 0.0),
                                           "count"),
        "revocation.recovered_on_demand": (r.get("recovered_on_demand", 0.0),
                                           "count"),
        "revocation.work_lost_slots": (r.get("work_lost", 0.0), "slots"),
        "lp.cold_solve_s": (self_s("lp.cold_solve"), "s"),
        "lp.warm_solve_s": (self_s("lp.warm_solve"), "s"),
        "lp.refactor_s": (self_s("lp.refactor"), "s"),
        "lp.presolve_s": (self_s("lp.presolve"), "s"),
        "lp.pivots": (c["rrp.lp.pivots.primal"] + c["rrp.lp.pivots.dual"],
                      "count"),
        "lp.refactorizations": (c["rrp.lp.refactorizations"], "count"),
        "lp.warm_hit_frac": (ratio(c["rrp.bnb.warm_nodes"], lps), "frac"),
        "milp.bnb_nodes": (nodes, "count"),
        "milp.nodes_per_s": (ratio(nodes, solve_s), "1/s"),
        "milp.cuts_added": (c["rrp.bnb.cuts_added"], "count"),
        "milp.root_gap_closed": (
            ratio(r.get("root_gap_closed_sum", 0.0), gaps), "frac"),
        "milp.cut_separation_s": (prefixed("cuts."), "s"),
        "milp.bnb_self_s": (prefixed("bnb."), "s"),
        "obs.trace_overhead_pct": (
            100 * (ratio(raw["traced_pass_s"], raw["untraced_pass_s"]) - 1),
            "pct"),
        "obs.spans_dropped": (raw["spans_dropped"], "count"),
        "obs.traced_wall_s": (b.wall_us / 1e6 / n, "s"),
        "decisions": (raw["decisions"], "count"),
    }


def measure(args) -> int:
    build()
    failures = []
    trace_file = None
    if args.trace:
        trace_file = BUILD / f"trace-{args.workload}-{args.seed}.json"
    try:
        raw = run_harness(args.workload, args.seed, args.seconds, trace_file)
        events, breakdown = [], None
        if trace_file:
            events = trace_breakdown.load_events(str(trace_file))
            breakdown = trace_breakdown.fold(events)
    finally:
        if trace_file and trace_file.exists():
            trace_file.unlink()
    failures += raw["failures"]
    failed = raw["failed"]

    if breakdown is None:
        metrics = end_to_end(raw)
    else:
        metrics = per_layer(raw, events, breakdown)
        if raw["spans_dropped"] > 0:
            failures.append(f"{raw['spans_dropped']} spans dropped")
            failed += 1
        drift = abs(breakdown.accounted_us() - breakdown.wall_us)
        if drift > 1e-6 * breakdown.wall_us + 1.0:
            failures.append(f"layers miss {drift:.3f} us of the traced wall")
            failed += 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{raw['passes']} passes, {raw['decisions']} decisions, "
          f"digest {raw.get('digest', '-')}")
    if breakdown is not None:
        print(trace_breakdown.report(breakdown))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>18.6g} {unit}")
    for f in failures:
        print(f"  FAILED: {f}")
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


DETERMINISTIC = ("digest", "quality", "counters", "results")


def check_determinism() -> int:
    build()
    bad = 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            runs = [run_harness(workload, seed, 0.01, None) for _ in range(2)]
            same = all(runs[0][k] == runs[1][k] for k in DETERMINISTIC)
            ok = same and all(r["failed"] == 0 for r in runs)
            bad += not ok
            print(f"{workload:<18} seed {seed:<6} digest {runs[0]['digest']}"
                  f" {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args()
    if args.check_determinism:
        return check_determinism()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
