"""Quotient groups G / <<S>> as groups of their own, a reference for
the presentation-based H1(BG_C) and |pi1(BG_C)| of schur_orbits.homology.
"""

from schur_orbits.groups import DEFAULT_MAX_ORDER, build_group, closure


def _coset_table(G, subgroup_elems):
    """Map element -> coset id for a (normal) subgroup."""
    sub = set(subgroup_elems)
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        for h in sub:
            coset_of[G.mul[x][h]] = cid
    return coset_of, reps


def quotient_by_normal_closure(G, S):
    """G / <<S>> as a FiniteGroup, plus the projection map.

    S is any element set; its normal closure is taken first.
    """
    closure_seed = set()
    for s in S:
        for g in range(G.order):
            closure_seed.add(G.conj(s, g))
    K = closure(G, closure_seed) if closure_seed else (0,)
    coset_of, reps = _coset_table(G, K)
    q = len(reps)
    table = [[coset_of[G.mul[reps[a]][reps[b]]] for b in range(q)] for a in range(q)]
    Q = build_group({"cayley_table": table}, max_order=max(DEFAULT_MAX_ORDER, q))
    # build_group may renumber; reps[0] = some element of K so coset 0 holds
    # the identity and index 0 survives renumbering
    return Q, tuple(coset_of)
