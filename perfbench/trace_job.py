"""Traced entry point: run one schur-orbits CLI job in this process with
timing wrappers around the public functions of each module.

    PYTHONPATH=src python3 perfbench/trace_job.py SPANS_JSON CLI_ARG...

Each wrapper replaces its function in every schur_orbits module
namespace that holds it, which is where the calling code looks it up,
and then `schur_orbits.cli.main` runs the job exactly as
`python -m schur_orbits.cli CLI_ARG...` would.  Coarse calls get one
span each (name, start, end, parent span).  Hot calls get a call count
and a total time per parent span.  Spans stay in memory and are written
to SPANS_JSON when the job ends; the exit code is the CLI's.

Hot-call time is the calling thread's CPU time (time.thread_time).  The
orbit engine's worker threads take turns holding the interpreter lock,
so their CPU times add up to at most the wall time of the span that
started them, where their wall-clock intervals would overlap.  A hot
call made inside another hot call is counted but its time stays with
the outer call.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter, thread_time

from schur_orbits import (
    branched_schur,
    cli,
    covers,
    fastorbits,
    groups,
    homology,
    intlinalg,
    moves,
    stabilization,
)

MODULES = (cli, groups, covers, moves, fastorbits, homology, intlinalg,
           stabilization, branched_schur)


class Tracer:
    """Spans and hot-call tallies of one job, kept in memory."""

    def __init__(self):
        self.spans = []
        self.main_stack = []
        self.hot_tables = []  # one {(name, parent id): [calls, s]} per thread
        self._lock = threading.Lock()
        self._local = threading.local()
        self._init_thread(self.main_stack)

    def _init_thread(self, stack):
        loc = self._local
        loc.stack, loc.hot, loc.depth = stack, {}, 0
        with self._lock:
            self.hot_tables.append(loc.hot)
        return loc

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            # a worker thread: its calls belong to the main thread's
            # open span, which is waiting on it
            loc = self._init_thread([])
        return loc

    def _parent(self, stack):
        if stack:
            return stack[-1]["id"]
        return self.main_stack[-1]["id"] if self.main_stack else None

    def coarse(self, name, fn, before=None, after=None):
        """One span per call.  before(args) and after(args, result)
        return counts recorded on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._thread().stack
            span = {"id": len(self.spans), "name": name,
                    "parent": self._parent(stack), "counts": {}}
            if before is not None:
                span["counts"].update(before(args))
            self.spans.append(span)
            stack.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span["error"] = type(e).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if after is not None:
                span["counts"].update(after(args, result))
            return result

        return wrapper

    def hot(self, name, fn):
        """A call count and a total time per parent span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = self._thread()
            key = (name, self._parent(loc.stack))
            loc.depth += 1
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = thread_time() - t0
                loc.depth -= 1
                rec = loc.hot.get(key)
                if rec is None:
                    rec = loc.hot[key] = [0, 0.0]
                rec[0] += 1
                if not loc.depth:
                    rec[1] += dt

        return wrapper

    def dump(self):
        hot = {}
        for table in self.hot_tables:
            for key, (calls, s) in table.items():
                rec = hot.setdefault(key, [0, 0.0])
                rec[0] += calls
                rec[1] += s
        return {"spans": self.spans,
                "hot": [[n, p, c, s] for (n, p), (c, s) in hot.items()]}


def _patch(module, name, wrapper_of):
    """Replace module.name by its wrapper wherever schur_orbits code
    looks it up: every module attribute bound to the same function."""
    orig = getattr(module, name)
    wrapped = wrapper_of(orig)
    for m in MODULES:
        if getattr(m, name, None) is orig:
            setattr(m, name, wrapped)


def _closed_scan_counts(args, result):
    G, g = args[0], args[1]
    states = G.order ** (2 * g)
    # int64 codes, 2g int64 decoded columns, int64 relation product,
    # bool mask, bool visited, int32 orbit ids: computed, not measured
    return {"states": states, "tuples": result[1],
            "array_bytes": states * (8 + 16 * g + 8 + 1 + 1 + 4)}


def install(tracer):
    t = tracer
    _patch(groups, "build_group", lambda f: t.coarse("groups.build_group", f))
    _patch(groups, "closure", lambda f: t.hot("groups.closure", f))
    _patch(covers, "enumerate_tuples", lambda f: t.coarse(
        "covers.enumerate_tuples", f,
        after=lambda a, r: {"tuples": len(r)}))
    _patch(moves, "orbits", lambda f: t.coarse(
        "moves.orbits", f,
        before=lambda a: {"tuples": len(a[0])},
        after=lambda a, r: {"states": len(r.orbit_of)}))
    _patch(moves, "canonicalize", lambda f: t.hot("moves.canonicalize", f))
    _patch(moves, "apply_move", lambda f: t.hot("moves.apply_move", f))
    _patch(moves, "induced_orbit_map",
           lambda f: t.coarse("moves.induced_orbit_map", f))
    _patch(fastorbits, "closed_orbit_scan", lambda f: t.coarse(
        "fastorbits.closed_orbit_scan", f, after=_closed_scan_counts))
    _patch(homology, "h2_group", lambda f: t.coarse(
        "homology.h2_group", f,
        before=lambda a: {"builds": int(a[0].digest not in homology._H2_CACHE)}))
    _patch(homology, "m_g_c", lambda f: t.coarse("homology.m_g_c", f))
    homology.H2Group.cycle_class = t.hot("homology.cycle_class",
                                         homology.H2Group.cycle_class)
    _patch(intlinalg, "snf_with_inverse",
           lambda f: t.coarse("intlinalg.snf_with_inverse", f))
    _patch(intlinalg, "cokernel", lambda f: t.coarse("intlinalg.cokernel", f))
    intlinalg.IntegerLattice.add = t.hot("intlinalg.IntegerLattice.add",
                                         intlinalg.IntegerLattice.add)
    _patch(stabilization, "stable_orbits", lambda f: t.coarse(
        "stabilization.stable_orbits", f,
        after=lambda a, r: {"levels": len(r.levels)}))
    _patch(branched_schur, "schur_diff",
           lambda f: t.coarse("branched_schur.schur_diff", f))
    _patch(branched_schur, "normalize_letters",
           lambda f: t.coarse("branched_schur.normalize_letters", f))
    for name, (params, run) in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = (params, t.coarse("cli.command", run))
    return t.coarse("cli.main", cli.main)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.dump(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
