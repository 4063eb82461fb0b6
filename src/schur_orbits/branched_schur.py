"""Relative branched Schur invariants in M(G)_C.

The difference class of two covers with the same branch data is computed
by normalizing the second tuple's puncture letters to match the first
(a move search), gluing the two covers along their branch disks into a
closed unbranched double, and reducing the double's Schur class modulo
C-tori.  Different gluing choices for the connecting tubes differ by
C-tori, so the class is well defined exactly in M(G)_C.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .covers import BranchedTuple, BudgetError, branch_data, is_surjective
from .homology import h2_group, m_g_c, unbranched_cycle
from .moves import MOVE_SET_TAG, move_catalog, move_closure
from .stabilization import puncture_stabilize

__all__ = [
    "normalize_letters",
    "double",
    "schur_diff",
    "DiffClass",
    "torsor_check",
    "NormalizationBudgetError",
]

ORIENTATION_CONVENTION = "mirror-reverse-swap-v1"


class DoublingError(ValueError):
    pass


class NormalizationBudgetError(BudgetError):
    pass


def normalize_letters(t, target, budget=200_000):
    """Search t's move orbit for a tuple whose puncture list equals the
    target exactly, in move_closure order.  The budget is the number of
    states after t that are tested; raises NormalizationBudgetError when
    none of them, or none of the whole orbit if it is smaller, matches."""
    target = tuple((int(w), int(o)) for w, o in target)
    if t.punctures == target:
        return t
    G = t.group
    want = sorted(
        (G.class_of[w if o == 1 else G.inv[w]], o) for w, o in target
    )
    have = sorted(t.branch_class(j) for j in range(t.n))
    if want != have:
        raise DoublingError("target has different branch data")
    closure = move_closure(t, move_catalog(G, t.genus, t.n))
    for u in islice(closure, 1, max(budget, 0) + 1):
        if u.punctures == target:
            return u
    raise NormalizationBudgetError(
        f"no tuple with the target letters found within {budget} states"
    )


def _mirror_handles(handles):
    """Orientation reversal: reverse handle order, swap each pair."""
    return tuple((b, a) for a, b in reversed(handles))


def double(t, t2):
    """Closed unbranched tuple obtained by gluing t to the orientation
    reversal of t2 along their branch disks.

    Requires identical puncture letter/sign lists.  The n - 1 connecting
    tubes become handles (B_j, 1) carrying the based boundary words
    B_j = [a_1,b_1]...[a_g,b_g] w_1 ... w_j and trivial tube monodromy;
    any other tube monodromy choice shifts the class by a C-torus only.
    """
    G = t.group
    if t2.group != G:
        raise DoublingError("group mismatch")
    if t.genus != t2.genus or t.punctures != t2.punctures:
        raise DoublingError("doubling needs identical genus and puncture lists")
    n = t.n
    if n == 0 and t.genus == 0:
        raise DoublingError("nothing to double: closed genus-0 tuple")
    tubes = []
    p = 0
    for a, b in t.handles:
        p = G.mul[p][G.commutator(a, b)]
    for j in range(n - 1):
        p = G.mul[p][t.punctures[j][0]]
        tubes.append((p, 0))
    handles = t.handles + tuple(tubes) + _mirror_handles(t2.handles)
    out = BranchedTuple(G, len(handles), handles, ())
    if out.relation_product() != 0:
        raise DoublingError("doubled tuple violates the relation (bug)")
    return out


@dataclass(frozen=True)
class DiffClass:
    coords: tuple  # coordinates in the m_g_c presentation
    invariant_factors: tuple
    move_set: str = MOVE_SET_TAG
    convention: str = ORIENTATION_CONVENTION

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def to_json(self):
        return {
            "coords": list(self.coords),
            "invariant_factors": list(self.invariant_factors),
            "move_set": self.move_set,
            "convention": self.convention,
        }


def schur_diff(t, t2, class_ids=None, budget=200_000, max_retries=2):
    """Difference of branched Schur invariants of two covers with the
    same (genus, branch data), as an element of M(G)_C.

    When the letter normalization search fails at the current level,
    both tuples are stabilized identically by one puncture round per
    class and the search retries.
    """
    G = t.group
    if t2.group != G:
        raise DoublingError("group mismatch")
    if t.genus != t2.genus:
        raise DoublingError("genus mismatch")
    bd, bd2 = branch_data(t), branch_data(t2)
    if bd != bd2:
        raise DoublingError("branch data mismatch")
    if not (is_surjective(t) and is_surjective(t2)):
        raise DoublingError("difference classes are defined for surjective tuples")
    if class_ids is None:
        class_ids = bd.class_ids()
    M, proj = m_g_c(G, class_ids)
    H2 = h2_group(G)
    for attempt in range(max_retries + 1):
        try:
            s2 = normalize_letters(t2, t.punctures, budget=budget)
            d = double(t, s2)
            h2_coords = H2.cycle_class(unbranched_cycle(G, d.handles))
            return DiffClass(coords=proj(h2_coords),
                             invariant_factors=M.invariant_factors)
        except NormalizationBudgetError:
            if attempt == max_retries:
                raise
            for cid in sorted(set(class_ids)):
                t = puncture_stabilize(t, cid)
                t2 = puncture_stabilize(t2, cid)
    raise NormalizationBudgetError("unreachable")


def torsor_check(reps, class_ids=None, budget=200_000):
    """Verify the torsor structure on a stabilized level: pairwise
    differences satisfy the cocycle identity, vanish exactly on the
    diagonal, and enumerate M(G)_C exactly once from any basepoint."""
    reps = list(reps)
    if not reps:
        raise DoublingError("no representatives given")
    G = reps[0].group
    if class_ids is None:
        class_ids = branch_data(reps[0]).class_ids()
    M, _ = m_g_c(G, class_ids)
    k = len(reps)
    D = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            D[i][j] = schur_diff(reps[i], reps[j], class_ids=class_ids,
                                 budget=budget).coords
    failures = []
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if M.add(D[i][j], D[j][l]) != D[i][l]:
                    failures.append(f"cocycle fails at ({i},{j},{l})")
    for i in range(k):
        for j in range(k):
            zero = all(x == 0 for x in D[i][j])
            if zero != (i == j):
                failures.append(f"separation fails at ({i},{j})")
    base = sorted(D[0][j] for j in range(k))
    want = sorted(M.elements())
    if base != want:
        failures.append("differences from the basepoint do not enumerate M exactly")
    return {
        "orbits": k,
        "m_order": M.order(),
        "m_invariant_factors": list(M.invariant_factors),
        "diff_matrix": [[list(x) for x in row] for row in D],
        "passed": not failures,
        "failures": failures,
    }
