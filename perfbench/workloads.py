"""Workload definitions: groups, seeded generators and CLI job lists
with their expected answers.

A workload is a fixed list of schur-orbits CLI jobs.  Seed 0 uses the
generators listed in GROUPS.  Any other seed replaces each group's
generators by a random generating sequence of the same length, so the
group, the move-catalog size and every expected answer stay the same
while element numbering, tuple order and canonical representatives
change.  Element-index arguments are written against the seed-0
numbering and mapped through the new one.

See perfbench/NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Permutation generators (0-indexed image lists), seed-0 form.
GROUPS = {
    "s3": [[1, 0, 2], [1, 2, 0]],
    "s4": [[1, 0, 2, 3], [1, 2, 3, 0]],
    "a4": [[1, 2, 0, 3], [0, 2, 3, 1]],
    "d4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "k4": [[1, 0, 3, 2], [2, 3, 0, 1]],
    "z2^4": [
        [1, 0, 2, 3, 4, 5, 6, 7],
        [0, 1, 3, 2, 4, 5, 6, 7],
        [0, 1, 2, 3, 5, 4, 6, 7],
        [0, 1, 2, 3, 4, 5, 7, 6],
    ],
}


def bfs_elements(perms):
    """Elements of the group generated by perms, numbered the way
    schur_orbits.groups numbers them: breadth-first word order from the
    generators, new element q = p after g, ties by generator order."""
    n = len(perms[0])
    ident = tuple(range(n))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(p[g[i]] for i in range(n))
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    return elems, index


@dataclass(frozen=True)
class SeededGroup:
    name: str
    generators: tuple  # permutations handed to the CLI
    index_map: tuple  # seed-0 element index -> element index under generators

    def spec(self):
        return {"permutations": [list(p) for p in self.generators]}

    def e(self, x):
        """Element index x of the seed-0 numbering, renumbered."""
        return self.index_map[x]


def seeded_group(name, seed):
    gens0 = [tuple(p) for p in GROUPS[name]]
    elems0 = bfs_elements(gens0)[0]
    if seed == 0:
        gens = gens0
    else:
        rng = random.Random(f"perfbench:{seed}:{name}")
        pool = sorted(elems0[1:])
        while True:
            gens = rng.sample(pool, len(gens0))
            if len(bfs_elements(gens)[0]) == len(elems0):
                break
    _, index = bfs_elements(gens)
    return SeededGroup(name, tuple(gens), tuple(index[p] for p in elems0))


@dataclass(frozen=True)
class Job:
    """One CLI invocation: subcommand, group, extra arguments and the
    answer the report must contain.  `tuples` is the number of tuples
    the job classifies into orbits (0 when it classifies none).
    `known_failure` is the error kind of a known defect: the job still
    counts as failed when it exits with that kind, but not as wrong."""
    key: str
    command: str
    group: str
    args: tuple
    expect: dict
    tuples: int = 0
    known_failure: str | None = None


def _orbits(key, G, genus, branch, tuples, orbits):
    args = ["--genus", str(genus)]
    if branch is not None:
        args += ["--branch", branch]
    return Job(key, "orbits", G.name, tuple(args),
               {"tuples": tuples, "orbits": orbits}, tuples)


def _punctured_orbits(g):
    s3, s4, a4 = g("s3"), g("s4"), g("a4")
    return [
        _orbits("orbits-s4-g0-6t", s4, 0, "6 transpositions", 2880, 1),
        _orbits("orbits-s3-g1-6t", s3, 1, "6 transpositions", 8736, 6),
        _orbits("orbits-a4-g0-3c3c-", a4, 0,
                f"3 {a4.e(1)}, 3 {a4.e(1)} -", 20400, 2),
        _orbits("orbits-a4-g0-6c", a4, 0, f"6 {a4.e(1)}", 1020, 2),
    ]


def _closed_scan(g):
    return [
        _orbits("orbits-a4-g3", g("a4"), 3, None, 742560, 2),
        _orbits("orbits-d4-g3", g("d4"), 3, None, 120960, 2),
    ]


def _homology(g):
    a4, k4 = g("a4"), g("k4")
    sch_tuple = json.dumps({"g": 1, "handles": [[k4.e(1), k4.e(2)]],
                            "punctures": []})
    return [
        Job("h2-s4", "h2", "s4", (), {"H2": [2]}),
        Job("h2-z2^4", "h2", "z2^4", (), {"H2": [2, 2, 2, 2, 2, 2]}),
        Job("h2bgc-d4-all", "h2bgc", "d4", ("--classes", "all"),
            {"H2": [2], "MGC": [], "N_rank": 4, "H1": [], "pi1_order": 1}),
        Job("mgc-a4-c1", "mgc", "a4", ("--classes", str(a4.e(1))),
            {"MGC": [2]}),
        Job("sch-k4-g1", "sch", "k4", ("--tuple", sch_tuple),
            {"H2": [2], "coords": [1]}),
    ]


def _stable_track(g):
    a4 = g("a4")
    stable = {"verdict": ("certified-match", "empirical-match")}
    return [
        Job("stable-range-s3-t", "stable-range", "s3",
            ("--classes", "transpositions"),
            {"stable_count": 1, "m_order": 1, **stable}),
        Job("stable-range-k4-closed", "stable-range", "k4",
            ("--no-branching",), {"stable_count": 2, "m_order": 2, **stable}),
        Job("torsor-k4-g2", "torsor-check", "k4",
            ("--no-branching", "--genus", "2"),
            {"passed": True, "tuples": 210}),
        Job("torsor-d4-g2", "torsor-check", "d4",
            ("--no-branching", "--genus", "2"),
            {"passed": True, "tuples": 1440}),
        Job("torsor-s3-g0-6t", "torsor-check", "s3",
            ("--classes", "transpositions", "--genus", "0",
             "--branch", "6 transpositions"),
            {"passed": True}),
        # Fails at commit f2998d5 with a normalization budget error
        # (exit 2); kept with its true answer so the defect shows.
        Job("torsor-a4-g0-6c", "torsor-check", "a4",
            ("--classes", str(a4.e(1)), "--genus", "0",
             "--branch", f"6 {a4.e(1)}"),
            {"passed": True, "orbits": 2}, known_failure="budget"),
    ]


WORKLOADS = {
    "punctured-orbits": _punctured_orbits,
    "closed-scan": _closed_scan,
    "homology": _homology,
    "stable-track": _stable_track,
}


def build(workload, seed):
    """(groups by name, job list) of one workload under one seed."""
    groups = {}

    def g(name):
        if name not in groups:
            groups[name] = seeded_group(name, seed)
        return groups[name]

    jobs = WORKLOADS[workload](g)
    for job in jobs:
        g(job.group)
    return groups, jobs


def check(job, report):
    """One message per expected field the report gets wrong (none when
    the answer is right)."""
    wrong = []
    for field, want in job.expect.items():
        got = report.get(field)
        ok = got in want if isinstance(want, tuple) else got == want
        if not ok:
            wrong.append(f"{field}: want {want!r}, got {got!r}")
    return wrong
