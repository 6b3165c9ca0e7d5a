#!/usr/bin/env python3
"""Fold a Chrome trace-event file into per-layer self time.

Reads the span file the benchmark harness writes, or any file written by
`rrp <command> --trace-out FILE`, and prints one row per layer: the
layer's self time (span duration minus the part its child spans cover)
and its share of the traced wall time.  The traced wall time is the sum
of the root spans' durations, so the rows add up to it exactly:

    python3 perfbench/trace_breakdown.py trace.json

Every span name maps to one layer by its prefix (LAYER_PREFIXES).  Time
that no layer span covers -- the self time of `rh.*` spans and of the
harness's API-call root spans -- is reported as `unattributed`.  The
harness's `bench.probe.*` spans time direct calls into layers that have
no span inside the library, and count for those layers.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field

# First matching prefix wins.
LAYER_PREFIXES = (
    ("bench.probe.snapshot", "price_distribution"),
    ("bench.probe.stage_supports", "scenario_tree"),
    ("bench.probe.tree_", "scenario_tree"),
    ("bench.probe.markov_", "markov_prices"),
    ("bench.probe.srrp_dp", "srrp_dp"),
    ("bench.probe.wagner_whitin", "wagner_whitin"),
    ("bench.probe.revocation", "revocation"),
    ("bench.", "unattributed"),
    ("rh.", "unattributed"),
    ("ts.", "timeseries"),
    ("tree.", "scenario_tree"),
    ("lp.", "lp"),
    ("bnb.", "milp"),
    ("cuts.", "milp"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


@dataclass
class Breakdown:
    """Span totals in microseconds."""

    wall_us: float = 0.0  # sum of root span durations
    layer_self_us: dict = field(default_factory=lambda: defaultdict(float))
    self_us: dict = field(default_factory=lambda: defaultdict(float))
    incl_us: dict = field(default_factory=lambda: defaultdict(float))
    root_us: dict = field(default_factory=lambda: defaultdict(float))
    durations_us: dict = field(default_factory=lambda: defaultdict(list))

    def accounted_us(self) -> float:
        return sum(self.layer_self_us.values())


def fold(events) -> Breakdown:
    """Folds complete events (dicts with name, ts, dur, tid) per thread.

    A span's parent is the innermost earlier span on the same thread
    whose interval contains it; its self time is its duration minus its
    children's durations.  Children that overrun their parent by the
    trace's rounding are clipped to it.
    """
    out = Breakdown()
    by_tid = defaultdict(list)
    for ev in events:
        by_tid[ev["tid"]].append(ev)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (float(e["ts"]), -float(e["dur"])))
        stack = []  # [name, end, remaining self]

        def close(entry):
            name, _, self_us = entry
            out.self_us[name] += self_us
            out.layer_self_us[layer_of(name)] += self_us

        for ev in spans:
            name, ts, dur = ev["name"], float(ev["ts"]), float(ev["dur"])
            while stack and stack[-1][1] <= ts:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                dur = min(dur, parent[1] - ts)
                parent[2] -= dur
            else:
                out.wall_us += dur
                out.root_us[name] += dur
            out.incl_us[name] += dur
            out.durations_us[name].append(dur)
            stack.append([name, ts + dur, dur])
        while stack:
            close(stack.pop())
    return out


def load_events(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [ev for ev in events if ev.get("ph") == "X"]


def report(b: Breakdown) -> str:
    wall = b.wall_us or 1.0
    lines = [f"{'layer':<20} {'self ms':>12} {'share':>8}"]
    for layer, us in sorted(b.layer_self_us.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<20} {us / 1e3:>12.3f} {100 * us / wall:>7.2f}%")
    lines.append(f"{'traced wall':<20} {b.wall_us / 1e3:>12.3f} {100.0:>7.2f}%")
    lines.append("")
    lines.append(f"{'span':<28} {'count':>8} {'self ms':>12} {'incl ms':>12}")
    for name, us in sorted(b.self_us.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28} {len(b.durations_us[name]):>8} "
                     f"{us / 1e3:>12.3f} {b.incl_us[name] / 1e3:>12.3f}")
    return "\n".join(lines)


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: trace_breakdown.py TRACE.json", file=sys.stderr)
        return 2
    print(report(fold(load_events(argv[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
