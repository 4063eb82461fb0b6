"""Difference classes and the torsor check of the branched Schur
invariant.

The lifting invariant Lambda(t) in M(G)_C is homology.lifting_invariant:
lifts multiplied in the central extension of G by H2 that h2_group's Hopf
cocycle defines, projected to M(G)_C.  The difference class of two covers
with the same branch data is Lambda(t) - Lambda(t2), the class of the
closed double of t and the orientation reversal of t2.  normalize_letters
is the move search that the doubling oracle in the tests runs.
"""

from __future__ import annotations

from itertools import islice

from .covers import branch_data, is_surjective
from .groups import BudgetError
from .homology import DoublingError, lifting_invariant, m_g_c
from .moves import MOVE_SET_TAG, move_catalog, move_closure
from .records import Frozen

__all__ = [
    "lifting_invariant",
    "schur_diff",
    "DiffClass",
    "torsor_check",
    "normalize_letters",
    "NormalizationBudgetError",
]

ORIENTATION_CONVENTION = "mirror-reverse-swap-v1"


class NormalizationBudgetError(BudgetError):
    pass


def normalize_letters(t, target, budget=200_000):
    """Search t's move orbit for a tuple whose puncture list equals the
    target exactly, in move_closure order.  The budget is the number of
    states after t that are tested; raises NormalizationBudgetError when
    none of them, or none of the whole orbit if it is smaller, matches.

    Lambda does not search; the doubling oracle in the tests does, and
    perfbench's trace patches this function by name."""
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


class DiffClass(Frozen):
    """coords: coordinates in the m_g_c presentation."""

    _fields = ("coords", "invariant_factors", "move_set", "convention")

    def __init__(self, coords, invariant_factors, move_set=MOVE_SET_TAG,
                 convention=ORIENTATION_CONVENTION):
        vars(self).update(coords=coords, invariant_factors=invariant_factors,
                          move_set=move_set, convention=convention)

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def to_json(self):
        return {
            "coords": list(self.coords),
            "invariant_factors": list(self.invariant_factors),
            "move_set": self.move_set,
            "convention": self.convention,
        }


def _check_same_level(t, t2):
    if t2.group != t.group:
        raise DoublingError("group mismatch")
    if t.genus != t2.genus:
        raise DoublingError("genus mismatch")
    if branch_data(t) != branch_data(t2):
        raise DoublingError("branch data mismatch")
    if not (is_surjective(t) and is_surjective(t2)):
        raise DoublingError("difference classes are defined for surjective tuples")


def schur_diff(t, t2, class_ids=None):
    """Difference Lambda(t) - Lambda(t2) of the branched Schur invariants
    of two covers with the same (genus, branch data), in M(G)_C.  C
    defaults to the classes of the branch data."""
    _check_same_level(t, t2)
    if class_ids is None:
        class_ids = branch_data(t).class_ids()
    M, _ = m_g_c(t.group, class_ids)
    a, b = (lifting_invariant(s, class_ids) for s in (t, t2))
    return DiffClass(coords=M.sub(a, b), invariant_factors=M.invariant_factors)


def torsor_check(reps, class_ids=None):
    """Verify the torsor structure on a stabilized level: Lambda is a
    bijection from the representatives onto M(G)_C.  The pairwise
    differences D[i][j] = Lambda_i - Lambda_j (diff_matrix) vanish
    exactly on the diagonal, and those from the first representative
    enumerate M(G)_C exactly once.  D satisfies the cocycle identity
    D[i][j] + D[j][l] = D[i][l] in any abelian group, so it is not
    checked."""
    reps = list(reps)
    if not reps:
        raise DoublingError("no representatives given")
    for t in reps:
        _check_same_level(reps[0], t)
    if class_ids is None:
        class_ids = branch_data(reps[0]).class_ids()
    M, _ = m_g_c(reps[0].group, class_ids)
    lam = [lifting_invariant(t, class_ids) for t in reps]
    D = [[M.sub(a, b) for b in lam] for a in lam]
    k = len(reps)
    failures = []
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
