"""Self times and per-layer metrics from the spans of traced jobs.

A layer is a schur_orbits module; a span or hot call belongs to the
layer named by the first part of its name.  A span's self time is its
duration minus the durations of its child spans and the time of the
hot calls made under it.  The untraced remainder of a job (interpreter
start, imports, process exit) is its traced wall time minus its root
spans, so the layer self times plus the remainder add up to the wall
time by definition.  What is checked is that the remainder and every
self time are not negative.

The per-layer metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "groups", "covers", "moves", "fastorbits", "homology",
          "intlinalg", "stabilization", "branched_schur")

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# hot calls are timed on the thread CPU clock and spans on the wall
# clock, so a span's self time can read slightly below 0
_MIN_SELF_S = -1e-3


class AccountingError(ValueError):
    """A job's untraced remainder or a span's self time is negative."""


def _layer(name):
    return name.split(".", 1)[0]


class JobTrace:
    """Per-name totals of one traced job's spans and hot calls."""

    def __init__(self, trace, wall_s):
        spans = trace["spans"]
        by_id = {s["id"]: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for name, parent, calls, sec in trace["hot"]:
            child[parent] += sec
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)  # outermost spans of each name
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # "name.count" -> summed counts
        self.errors = defaultdict(int)  # "name.ErrorType" -> spans
        self.layer_s = dict.fromkeys(LAYERS, 0.0)
        self.min_self_s = 0.0
        root_s = 0.0
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            own = dur - child[s["id"]]
            self.min_self_s = min(self.min_self_s, own)
            self.calls[name] += 1
            self.self_s[name] += own
            self.layer_s[_layer(name)] += own
            if not self._nested_in_same(s, by_id):
                self.incl_s[name] += dur
            for k, v in s["counts"].items():
                self.counts[f"{name}.{k}"] += v
            if "error" in s:
                self.errors[f"{name}.{s['error']}"] += 1
            if s["parent"] is None:
                root_s += dur
        self.hot_calls = defaultdict(int)  # (name, parent span name) -> calls
        for name, parent, calls, sec in trace["hot"]:
            self.calls[name] += calls
            self.incl_s[name] += sec
            self.layer_s[_layer(name)] += sec
            pname = by_id[parent]["name"] if parent is not None else None
            self.hot_calls[(name, pname)] += calls
            if parent is None:
                root_s += sec
        self.wall_s = wall_s
        # layer self times sum to the root spans, so layers + untraced
        # equals the wall time by definition; what can fail is a
        # negative remainder or self time
        self.untraced_s = wall_s - root_s
        if self.untraced_s < 0 or self.min_self_s < _MIN_SELF_S:
            raise AccountingError(
                f"span accounting is negative: wall {wall_s:.6f} s, untraced "
                f"{self.untraced_s:.6f} s, min self {self.min_self_s:.6f} s")

    @staticmethod
    def _nested_in_same(s, by_id):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    def breakdown(self):
        return {"wall_s": self.wall_s, "untraced_s": self.untraced_s,
                "layers_s": self.layer_s, "min_self_s": self.min_self_s}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(jobs, overhead_s):
    """Per-layer metrics summed over the traced jobs.

    jobs: list of (JobTrace, exit code, report bytes)."""
    calls, counts, errors, hot = (defaultdict(int) for _ in range(4))
    incl, own, layer_s = (defaultdict(float) for _ in range(3))
    untraced = report_bytes = cache_hits = 0
    for jt, code, nbytes in jobs:
        for src, dst in ((jt.calls, calls), (jt.incl_s, incl), (jt.self_s, own),
                         (jt.counts, counts), (jt.errors, errors),
                         (jt.hot_calls, hot), (jt.layer_s, layer_s)):
            for k, v in src.items():
                dst[k] += v
        untraced += jt.untraced_s
        report_bytes += nbytes
        cache_hits += code == 0 and jt.calls["cli.command"] == 0
    v = {
        "groups.build_group.s": incl["groups.build_group"],
        "groups.closure.calls": calls["groups.closure"],
        "groups.closure.s": incl["groups.closure"],
        "covers.enumerate_tuples.s": incl["covers.enumerate_tuples"],
        "covers.enumerate_tuples.tuples": counts["covers.enumerate_tuples.tuples"],
        "covers.tuples_per_s": _ratio(counts["covers.enumerate_tuples.tuples"],
                                      incl["covers.enumerate_tuples"]),
        "moves.orbits.self_s": own["moves.orbits"],
        "moves.orbits.tuples_per_s": _ratio(counts["moves.orbits.tuples"],
                                            incl["moves.orbits"]),
        "moves.orbits.apply_per_state": _ratio(
            hot[("moves.apply_move", "moves.orbits")],
            counts["moves.orbits.states"]),
        "moves.canonicalize.calls": calls["moves.canonicalize"],
        "moves.canonicalize.s": incl["moves.canonicalize"],
        "moves.apply_move.calls.orbits": hot[("moves.apply_move", "moves.orbits")],
        "moves.apply_move.calls.normalize_letters":
            hot[("moves.apply_move", "branched_schur.normalize_letters")],
        "moves.induced_orbit_map.s": incl["moves.induced_orbit_map"],
        "fastorbits.closed_orbit_scan.s": incl["fastorbits.closed_orbit_scan"],
        "fastorbits.states": counts["fastorbits.closed_orbit_scan.states"],
        "fastorbits.states_per_s": _ratio(
            counts["fastorbits.closed_orbit_scan.states"],
            incl["fastorbits.closed_orbit_scan"]),
        "fastorbits.array_bytes": counts["fastorbits.closed_orbit_scan.array_bytes"],
        "homology.h2_group.s": incl["homology.h2_group"],
        "homology.h2_group.calls": calls["homology.h2_group"],
        "homology.h2_group.builds": counts["homology.h2_group.builds"],
        "homology.cycle_class.calls": calls["homology.cycle_class"],
        "homology.m_g_c.s": incl["homology.m_g_c"],
        "intlinalg.snf_with_inverse.calls": calls["intlinalg.snf_with_inverse"],
        "intlinalg.snf_with_inverse.s": incl["intlinalg.snf_with_inverse"],
        "intlinalg.IntegerLattice.add.calls": calls["intlinalg.IntegerLattice.add"],
        "intlinalg.IntegerLattice.add.s": incl["intlinalg.IntegerLattice.add"],
        "intlinalg.cokernel.s": incl["intlinalg.cokernel"],
        "stabilization.stable_orbits.self_s": own["stabilization.stable_orbits"],
        "stabilization.levels": counts["stabilization.stable_orbits.levels"],
        "branched_schur.schur_diff.calls": calls["branched_schur.schur_diff"],
        "branched_schur.schur_diff.s": incl["branched_schur.schur_diff"],
        "branched_schur.schur_diff.retries": (
            calls["branched_schur.normalize_letters"]
            - calls["branched_schur.schur_diff"]),
        "branched_schur.normalize_letters.s": incl["branched_schur.normalize_letters"],
        "branched_schur.normalize_letters.budget_errors":
            errors["branched_schur.normalize_letters.NormalizationBudgetError"],
        "cli.main.self_s": own["cli.main"],
        "cli.report_bytes": report_bytes,
        "cli.cache_hits": cache_hits,
        **{f"layer.{name}.self_s": layer_s[name] for name in LAYERS},
        "layer.untraced_s": untraced,
        "trace.overhead_s": overhead_s,
    }
    listed = json.loads(BENCHMARK_JSON.read_text())["per_layer"]
    if {m["name"] for m in listed} != set(v):
        raise AccountingError("per-layer metrics computed here differ from "
                              "those listed in BENCHMARK.json")
    return {m["name"]: {"value": v[m["name"]], "unit": m["unit"]}
            for m in listed}
