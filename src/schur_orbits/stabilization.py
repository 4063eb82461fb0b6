"""Stabilization and dilation maps on branched tuples, and the
stable-range prober.

The prober grows (genus, branch data) in rounds, recomputes orbit
tables at every level, and reports when the orbit count plateaus,
cross-checking the stable count against the order of the reduced
multiplier M(G)_C computed by the homology pipeline.  On every level it
sweeps, three counts are ordered:

    catalog orbits >= mapping-class orbits >= distinct Lambda values

The first holds because every catalog move is a mapping class or a
conjugation (tests/test_move_words.py checks each move word against the
surface relator in the free group), the second because the branched
Schur invariant Lambda is a mapping-class invariant (Serre, C. R. Acad.
Sci. Paris 311, 1990; Fried & Voelklein, Math. Ann. 290, 1991).  So
the Lambda values of a level are those of its orbit representatives,
and when they number as many as the orbits the count is proved.
"""

from __future__ import annotations

from .covers import BranchData, BranchedTuple, hom_branch_type
from .groups import DEFAULT_BUDGET, BudgetError, DomainError, generates
from .homology import lifting_invariant, m_g_c
from .moves import MOVE_SET_TAG, induced_orbit_map
from .records import Record

__all__ = [
    "puncture_stabilize",
    "handle_stabilize",
    "dilate",
    "stable_orbits",
    "StableRangeReport",
]


class StabilizationError(DomainError):
    pass


def puncture_stabilize(t, class_id, x=None):
    """Connect sum with the stabilizing sphere of a class: appends the
    cancelling pair (x, +1), (x^{-1}, -1)."""
    G = t.group
    if x is None:
        x = G.class_reps[class_id]
    if G.class_of[x] != class_id:
        raise StabilizationError(f"element {x} not in class {class_id}")
    if x == 0:
        raise StabilizationError("cannot stabilize along the identity class")
    p = t.punctures + ((x, 1), (G.inv[x], -1))
    return BranchedTuple(G, t.genus, t.handles, p)


def handle_stabilize(t):
    """Connect sum with the trivial cover of the torus: appends a
    trivial handle pair."""
    return BranchedTuple(t.group, t.genus + 1, t.handles + ((0, 0),), t.punctures)


def dilate(t):
    """Replace each negatively framed puncture (x, -1) by ord(c) - 1
    positively framed punctures (x^{-1}, +1), where c = x^{-1} is the
    branch element.  The product is preserved and the output is
    positively framed."""
    G = t.group
    p = []
    for w, o in t.punctures:
        if o == 1:
            p.append((w, 1))
        else:
            c = G.inv[w]
            k = G.element_order(c) - 1
            p.extend([(c, 1)] * k)
    return BranchedTuple(G, t.genus, t.handles, tuple(p))


class StableRangeReport(Record):
    _fields = ("group_digest", "class_ids", "move_set", "levels",
               "stable_count", "m_order", "m_invariant_factors", "verdict")

    def __init__(self, group_digest, class_ids, move_set, levels=None,
                 stable_count=None, m_order=None, m_invariant_factors=(),
                 verdict="inconclusive"):
        self.group_digest = group_digest
        self.class_ids = class_ids
        self.move_set = move_set
        self.levels = [] if levels is None else levels
        self.stable_count = stable_count
        self.m_order = m_order
        self.m_invariant_factors = m_invariant_factors
        self.verdict = verdict

    def to_json(self):
        return {
            "group": self.group_digest,
            "classes": list(self.class_ids),
            "move_set": self.move_set,
            "levels": self.levels,
            "stable_count": self.stable_count,
            "m_order": self.m_order,
            "m_invariant_factors": list(self.m_invariant_factors),
            "verdict": self.verdict,
        }


def _round_map(G, class_ids, skip_handle):
    """One composite stabilization round: for each class, puncture
    stabilize then dilate (keeping levels positively framed); then a
    handle unless on the genus-0 track."""
    cids = sorted(set(class_ids))

    def f(t):
        for cid in cids:
            t = dilate(puncture_stabilize(t, cid))
        if not skip_handle:
            t = handle_stabilize(t)
        return t

    return f


def _next_level(G, class_ids, skip_handle, g, v):
    """The (genus, branch data) that a _round_map round sends level (g, v)
    to, from branch data alone: each (c, -1) slot dilates to ord(c) - 1
    slots of (c, +1), each class c of C (distinct class ids) adds ord(c)
    slots of (c, +1), and g grows by 1 unless skip_handle."""
    d = {(cid, 1): G.element_order(G.class_reps[cid]) for cid in class_ids}
    for (cid, sign), k in v.counts:
        if sign < 0:
            k *= G.element_order(G.class_reps[cid]) - 1
        d[(cid, 1)] = d.get((cid, 1), 0) + k
    return g + (not skip_handle), BranchData.from_dict(d)


def stable_orbits(G, class_ids, v_seed=None, g_seed=None, max_rounds=6,
                  enum_budget=DEFAULT_BUDGET):
    """Probe the stable range at (g, v) levels grown by stabilization
    rounds (_next_level) until a nonzero orbit count plateaus over two
    full rounds, then cross-check against |M(G)_C|: "certified-match"
    when the count is |M(G)_C| and on every level of the plateau the
    orbit representatives take as many Lambda values as there are
    orbits (the inequalities of the module docstring make that a proof),
    "empirical-match" when only the count matches, else "mismatch".

    A round leaves the handles alone, so it sends each node of a level
    into one node of the next, and mapping each node's least tuple checks
    its induced orbit map in full.  A level over enum_budget is skipped.
    The nodes mapped into a level number no more than the prefixes of it
    or of the level before, so the map needs no budget of its own."""
    # here, not at the top, so that dilate and stabilize load no numpy
    from .fastorbits import level_orbits

    cids = tuple(sorted(set(class_ids)))
    if v_seed is None:
        v_seed = BranchData.from_dict({})
    seed_classes = {c for (c, _), _ in v_seed.counts}
    if not seed_classes <= set(cids):
        raise StabilizationError("seed branch data not supported on C")
    # rounds add ord(c) c and dilation keeps the class in G_ab, so a seed
    # outside N has no tuple on any level of its track
    if not hom_branch_type(G, cids, v_seed)[1]:
        raise StabilizationError("seed branch data lies outside N: "
                                 "no level of its track has a tuple")
    if g_seed is None:
        g_seed = 0 if cids else 1
    c_elems = [x for x in range(G.order) if G.class_of[x] in set(cids)]
    c_generates = generates(G, c_elems) if cids else False
    skip_handle = bool(cids) and c_generates and g_seed == 0

    M, _ = m_g_c(G, cids)
    report = StableRangeReport(
        group_digest=G.digest,
        class_ids=cids,
        move_set=MOVE_SET_TAG,
        m_order=M.order(),
        m_invariant_factors=M.invariant_factors,
    )

    def settled(k):
        """Whether the last k levels share a nonzero orbit count; if so,
        the report settles on it."""
        window = report.levels[-k:]
        count = window[0]["orbits"] if len(window) == k else 0
        if not count or any(lv["orbits"] != count for lv in window):
            return False
        proved = all(lv["lambda_values"] == count for lv in window)
        report.stable_count = count
        report.verdict = ("mismatch" if count != report.m_order else
                          "certified-match" if proved else "empirical-match")
        return True

    f = _round_map(G, cids, skip_handle)
    g, v = g_seed, v_seed
    prev = None  # the orbit table of the previous level
    for _ in range(max_rounds + 1):
        level = {"g": g, "v": [[list(k), m] for k, m in v.counts]}
        try:
            table, n_tuples = level_orbits(G, g, v, enum_budget)
        except BudgetError:
            # a plateau held for one full round settles the track when
            # the confirming round does not fit the budget
            settled(2)
            report.levels.append({**level, "skipped": "level over budget"})
            return report
        entry = {**level, "tuples": n_tuples, "orbits": table.num_orbits,
                 "lambda_values": len({lifting_invariant(t, cids)
                                       for t in table.representatives})}
        if prev is not None:
            flags = induced_orbit_map(f, prev, table,
                                      exhaustive_members=prev.members())
            entry["induced_map"] = {
                "surjective": flags["surjective"],
                "injective": flags["injective"],
            }
        report.levels.append(entry)
        if settled(3):
            return report
        prev = table
        g, v = _next_level(G, cids, skip_handle, g, v)
    report.verdict = "inconclusive"
    return report
