"""Stabilization and dilation maps on branched tuples, surjectivity
certificates, and the stable-range prober.

The prober grows (genus, branch data) in rounds, recomputes orbit
tables at every level, and reports when the orbit count plateaus,
cross-checking the stable count against the order of the reduced
multiplier M(G)_C computed by the homology pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import BranchData, BranchedTuple, BudgetError
from .fastorbits import closed_orbit_scan, orbit_scan
from .groups import closure
from .homology import hom_branch_type, m_g_c
from .moves import MOVE_SET_TAG, induced_orbit_map, move_catalog

__all__ = [
    "puncture_stabilize",
    "handle_stabilize",
    "dilate",
    "u_threshold",
    "certificate",
    "StabilizationCertificate",
    "level_orbits",
    "stable_orbits",
    "StableRangeReport",
    "surger_handles",
]


class StabilizationError(ValueError):
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


def u_threshold(G, class_id):
    """The puncture-surjectivity threshold branch type
    U = |class| * inn_order * delta_{(class,+1)}."""
    from .groups import inn_order_on_class

    c = G.class_reps[class_id]
    size = len(G.class_members(class_id))
    return BranchData.from_dict({(class_id, 1): size * inn_order_on_class(G, c)})


@dataclass(frozen=True)
class StabilizationCertificate:
    handle_surjective: bool
    puncture_surjective: dict  # class_id -> bool
    dilation_surjective: bool
    dilation_witness: dict  # class_id -> (w_plus, w_minus) or empty
    thresholds: dict  # class_id -> U multiplicity

    def all_puncture(self):
        return all(self.puncture_surjective.values())


def certificate(G, class_ids, g, v):
    """Recomputable surjectivity flags for the stabilization maps at
    level (g, v).

    The puncture flag for a class requires v to exceed U strictly in
    every (class, sign) component over C x {+1,-1}.  The dilation
    witness picks w = v on positive slots (the inequality then only
    needs each class to actually appear).
    """
    cids = sorted(set(class_ids))
    vd = v.as_dict() if isinstance(v, BranchData) else dict(v)
    handle_flag = g > G.order
    thresholds = {}
    pflags = {}
    for cid in cids:
        u = u_threshold(G, cid).as_dict()
        thresholds[cid] = u.get((cid, 1), 0)
        ok = True
        for c2 in cids:
            for sign in (1, -1):
                if vd.get((c2, sign), 0) <= u.get((c2, sign), 0):
                    ok = False
        pflags[cid] = ok
    witness = {}
    dil_flag = True
    for cid in cids:
        total = vd.get((cid, 1), 0) + vd.get((cid, -1), 0)
        if total > 0:
            witness[cid] = (total, 0)
        else:
            dil_flag = False
    return StabilizationCertificate(
        handle_surjective=handle_flag,
        puncture_surjective=pflags,
        dilation_surjective=dil_flag if cids else True,
        dilation_witness=witness,
        thresholds=thresholds,
    )


@dataclass
class StableRangeReport:
    group_digest: str
    class_ids: tuple
    move_set: str
    levels: list = field(default_factory=list)
    stable_count: int | None = None
    m_order: int | None = None
    m_invariant_factors: tuple = ()
    verdict: str = "inconclusive"

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


def level_orbits(G, g, v, enum_budget):
    """(orbit table, number of tuples) for the surjective tuples of one
    (g, v) level.

    Every level runs through fastorbits.orbit_scan, closed levels by way
    of closed_orbit_scan, the name perfbench/trace_job.py times.
    enum_budget caps the prefixes fastorbits.build_level walks; a level
    over it raises BudgetError before it is allocated.
    No tuple object is built but the representatives.
    """
    n = v.cardinality
    catalog = move_catalog(G, g, n)
    if n == 0:
        return closed_orbit_scan(G, g, catalog, enum_budget)
    return orbit_scan(G, g, v, catalog, enum_budget)


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
                  enum_budget=2_000_000):
    """Probe the stable range at (g, v) levels grown by stabilization
    rounds (_next_level) until the orbit count plateaus over two full
    rounds, then cross-check against |M(G)_C|."""
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
    c_generates = len(closure(G, c_elems)) == G.order if cids else False
    skip_handle = bool(cids) and c_generates and g_seed == 0

    M, _ = m_g_c(G, cids)
    report = StableRangeReport(
        group_digest=G.digest,
        class_ids=cids,
        move_set=MOVE_SET_TAG,
        m_order=M.order(),
        m_invariant_factors=M.invariant_factors,
    )

    def settle(count, window):
        report.stable_count = count
        certified = all(
            (c.all_puncture() if cids else True)
            and (c.handle_surjective if not skip_handle else True)
            for c in window
        )
        if count == report.m_order:
            report.verdict = "certified-match" if certified else "empirical-match"
        else:
            report.verdict = "mismatch"

    f = _round_map(G, cids, skip_handle)
    g, v = g_seed, v_seed
    counts = []
    prev = None  # the orbit table of the previous level
    certs = []
    for _ in range(max_rounds + 1):
        try:
            table, n_tuples = level_orbits(G, g, v, enum_budget)
            # every member of a punctured level is mapped; a closed
            # level is too large, so only its representatives are
            members = (prev.members(enum_budget)
                       if prev is not None and prev.codes.n else None)
        except BudgetError:
            report.levels.append({"g": g,
                                  "v": [[list(k), m] for k, m in v.counts],
                                  "skipped": "level over budget"})
            if len(counts) >= 2 and counts[-1] == counts[-2]:
                # plateau held for one full round; the confirming round
                # does not fit the budget, so settle on what we have
                settle(counts[-1], certs[-2:])
            return report
        cert = certificate(G, cids, g, v)
        entry = {
            "g": g,
            "v": [[list(k), m] for k, m in v.counts],
            "tuples": n_tuples,
            "orbits": table.num_orbits,
            "certificate": {
                "handle": cert.handle_surjective,
                "puncture": {str(k): b for k, b in
                             sorted(cert.puncture_surjective.items())},
                "dilation": cert.dilation_surjective,
            },
        }
        if prev is not None:
            flags = induced_orbit_map(f, prev, table,
                                      exhaustive_members=members)
            entry["induced_map"] = {
                "surjective": flags["surjective"],
                "injective": flags["injective"],
            }
        report.levels.append(entry)
        counts.append(table.num_orbits)
        certs.append(cert)
        if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
            settle(counts[-1], certs[-3:])
            return report
        prev = table
        g, v = _next_level(G, cids, skip_handle, g, v)
    report.verdict = "inconclusive"
    return report


def surger_handles(t, factorizations):
    """Trade every handle of a closed tuple for branch points, producing
    a genus-0 branched tuple in the same stable class.

    factorizations[i] = (xs, ys): letter lists with product
    xs[-1]...xs[0] = a_i and ys[-1]...ys[0] = b_i (composition reads
    right to left).  Each handle becomes the puncture block
    (x_k,+1)..(x_1,+1),(y_l,+1)..(y_1,+1),(x_1^{-1},-1)..(x_k^{-1},-1),
    (y_1^{-1},-1)..(y_l^{-1},-1), whose product is [a_i, b_i].
    """
    G = t.group
    if len(factorizations) != t.genus:
        raise StabilizationError("one factorization per handle required")
    blocks = []
    for (a, b), (xs, ys) in zip(t.handles, factorizations):
        if G.word(list(reversed(xs))) != a:
            raise StabilizationError(f"letters do not multiply to handle a = {a}")
        if G.word(list(reversed(ys))) != b:
            raise StabilizationError(f"letters do not multiply to handle b = {b}")
        if any(x == 0 for x in xs) or any(y == 0 for y in ys):
            raise StabilizationError("identity letters not allowed in factorizations")
        block = []
        block.extend((x, 1) for x in reversed(xs))
        block.extend((y, 1) for y in reversed(ys))
        block.extend((G.inv[x], -1) for x in xs)
        block.extend((G.inv[y], -1) for y in ys)
        blocks.append(tuple(block))
    punct = tuple(p for blk in blocks for p in blk) + t.punctures
    out = BranchedTuple(G, 0, (), punct)
    if out.relation_product() != 0:
        raise StabilizationError("surgered tuple violates the relation (bug)")
    return out
