"""Branched Schur invariants in M(G)_C, by lifting.

The bar-complex H2 classifier gives a normalized 2-cocycle
f(x, y) = proj_C([x|y]) with values in M(G)_C = H2(G) / <C-tori>: the
classifier is linear on 2-chains and sends im d3 to 0.  f defines the
central extension E = M(G)_C x G with product
(a, x)(b, y) = (a + b + f(x, y), xy).  Each class representative r of
C lifts to (0, r) and each conjugate x r x^{-1} to the conjugate of that
lift; two conjugators differ by an element z of the centralizer of r,
and the lifts then differ by the torus class of (r, z), which is 0 in
M(G)_C.  The lifting invariant of a tuple is

    Lambda(t) = [a~_1, b~_1] ... [a~_g, b~_g] l(c_1)^{o_1} ... l(c_n)^{o_n},

c_j the branch element of puncture j; its G-part is the surface relation,
so Lambda(t) lies in M(G)_C.  Commutators of lifts do not depend on the
lifts chosen and the branch lift is conjugation-equivariant, so Lambda
is constant on move orbits (Serre, C. R. Acad. Sci. Paris 311, 1990;
Fried and Voelklein, Math. Ann. 290, 1991).  The difference class of
two covers with the same branch data is Lambda(t) - Lambda(t2), the
class of the closed double of t and the orientation reversal of t2.

The table of f is read from h2_group's kernel coordinates column by
column, one sparse column per symbol [x|y], in Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .covers import BudgetError, branch_data, is_surjective
from .groups import DomainError
from .homology import _pair_index, h2_group, m_g_c
from .moves import MOVE_SET_TAG, move_catalog, move_closure

__all__ = [
    "lifting_invariant",
    "schur_diff",
    "DiffClass",
    "torsor_check",
    "normalize_letters",
    "NormalizationBudgetError",
]

ORIENTATION_CONVENTION = "mirror-reverse-swap-v1"


class DoublingError(DomainError):
    """Tuples that have no difference class: different levels, a
    non-surjective tuple, or a branch class outside C."""


class NormalizationBudgetError(BudgetError):
    pass


def normalize_letters(t, target, budget=200_000):
    """Search t's move orbit for a tuple whose puncture list equals the
    target exactly, in move_closure order.  The budget is the number of
    states after t that are tested; raises NormalizationBudgetError when
    none of them, or none of the whole orbit if it is smaller, matches.

    The invariants above do not search; the doubling oracle in the tests
    does, and perfbench's trace patches this function by name."""
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


class _Extension:
    """The central extension E = M(G)_C x G of the cocycle f, with the
    lifts of the elements of C."""

    def __init__(self, G, class_ids):
        H2 = h2_group(G)
        M, _ = m_g_c(G, class_ids)
        self.group, self.M, self.classes = G, M, sorted(set(class_ids))
        # f(x, y) = proj_C of the H2 coordinates of the kernel coordinates
        # of [x|y], read from the sparse column of W for that symbol
        P = H2.presentation
        self._f = [[M.zero()] * G.order for _ in range(G.order)]
        for x, y in product(range(1, G.order), repeat=2):
            col = H2._coords[_pair_index(G, x, y)]
            self._f[x][y] = M.to_coords(
                [sum(row[k] * w for k, w in col) % d
                 for d, row in zip(P.moduli, P.transform)])
        self._zero = M.zero()
        self._lift = {}
        for cid in self.classes:
            r = (self._zero, G.class_reps[cid])
            for x in range(G.order):
                xt = (self._zero, x)
                a, y = self.mul(self.mul(xt, r), self.inv(xt))
                if self._lift.setdefault(y, a) != a:
                    raise RuntimeError(
                        f"lift of element {y} depends on the conjugator (bug)")

    def mul(self, p, q):
        (a, x), (b, y) = p, q
        f = self._f[x][y]
        return (tuple((u + v + w) % d for u, v, w, d
                      in zip(a, b, f, self.M.moduli)),
                self.group.mul[x][y])

    def inv(self, p):
        a, x = p
        f = self._f[x][self.group.inv[x]]
        return (tuple(-(u + w) % d for u, w, d in zip(a, f, self.M.moduli)),
                self.group.inv[x])

    def invariant(self, t):
        """Lambda(t) as coordinates in M(G)_C."""
        G = self.group
        acc = (self._zero, 0)
        for a, b in t.handles:
            A, B = (self._zero, a), (self._zero, b)
            acc = self.mul(acc, self.mul(self.mul(A, B),
                                         self.mul(self.inv(A), self.inv(B))))
        for j, (w, o) in enumerate(t.punctures):
            c = w if o == 1 else G.inv[w]
            if c not in self._lift:
                raise DoublingError(
                    f"branch class {G.class_of[c]} of puncture {j} is not "
                    f"in C = {self.classes}")
            lc = (self._lift[c], c)
            acc = self.mul(acc, lc if o == 1 else self.inv(lc))
        a, x = acc
        if x != 0:
            raise DoublingError("tuple violates the surface relation")
        return a


_EXTENSION_CACHE = {}


def _extension(G, class_ids):
    key = (G.digest, tuple(sorted(set(class_ids))))
    if key not in _EXTENSION_CACHE:
        _EXTENSION_CACHE[key] = _Extension(G, class_ids)
    return _EXTENSION_CACHE[key]


def lifting_invariant(t, class_ids):
    """Lambda(t) in M(G)_C, C the union of the classes class_ids; raises
    DoublingError when a puncture's branch class lies outside C."""
    return _extension(t.group, class_ids).invariant(t)


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
    ext = _extension(t.group, class_ids)
    return DiffClass(coords=ext.M.sub(ext.invariant(t), ext.invariant(t2)),
                     invariant_factors=ext.M.invariant_factors)


def torsor_check(reps, class_ids=None):
    """Verify the torsor structure on a stabilized level: pairwise
    differences satisfy the cocycle identity, vanish exactly on the
    diagonal, and enumerate M(G)_C exactly once from any basepoint."""
    reps = list(reps)
    if not reps:
        raise DoublingError("no representatives given")
    for t in reps:
        _check_same_level(reps[0], t)
    if class_ids is None:
        class_ids = branch_data(reps[0]).class_ids()
    ext = _extension(reps[0].group, class_ids)
    M = ext.M
    lam = [ext.invariant(t) for t in reps]
    D = [[M.sub(a, b) for b in lam] for a in lam]
    k = len(reps)
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
