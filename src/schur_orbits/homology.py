"""Group homology through Hopf's formula.

For G = F/R with F free on X, Hopf's formula gives
H2(G) = (R n [F,F]) / [F,R] (Hopf, Comment. Math. Helv. 14, 1942;
Brown, Cohomology of Groups, GTM 87, ch. II).  X is the shortest prefix
of the element indices 1, 2, ... that generates G, less the elements
already generated, so it depends on G's table alone, on which the H2
caches are keyed.  A breadth-first transversal t_g spans a tree of the
Cayley graph, and R is free on the Schreier generators
s = t_g x t_{gx}^{-1} off the tree, |S| = |G|(|X|-1)+1 of them
(Reidemeister-Schreier: Magnus, Karrass and Solitar, Combinatorial Group
Theory, 1966).  G acts on R_ab = Z^S by conjugation, and rho_y(w), the
word w rewritten into Schreier generators from coset y, is the action
of y, so R/[F,R] = Z^S / span{rho_y(s) - s : y in X, s in S}.  That is
H2 + Z^|X|, as R/(R n [F,F]) embeds in F_ab with finite index.
Presented mod |G|^2 by an intlinalg.IntegerLattice, a Howell echelon of
dict rows, H2 is the slots of modulus below |G|^2, since |G| kills H2.
The quotient is presented from the reduced Howell form of its relations
(J. A. Howell, Linear Multilinear Algebra 19, 1986), which is unique for
its lattice.

A bar 2-cycle sum c [x|y] is classified by sum c f(x, y), with
f(x, y) = rho_x(t_y) = t_x t_y t_{xy}^{-1}, the cocycle of the central
extension F/[F,R] of G by R/[F,R] on the section t.  f sends im d3 to 0
and a cycle into the torsion of R/[F,R].  The H2 slots read that torsion
faithfully: the |G|-torsion of the other slots lies in |G|.R/[F,R],
which meets the torsion only in 0.

On top of that sit the branch-class reductions: the subgroup of torus
classes with meridian in a chosen union of conjugacy classes C, the
reduced multiplier M(G)_C, the branch-type lattice N, whose Hermite
normal form is read from an IntegerLattice mod |G| too, and the
homology of the C-branched classifying space reported as the
(non-natural) direct sum M(G)_C + N.  The lifting invariant Lambda
multiplies fixed lifts in the extension of G by H2 that f defines
(H2Group.word_class) and projects the product to M(G)_C; it is the one
route from a tuple to its class.  With C empty, M(G)_C = H2 under the
identity, and Lambda is the Schur class of a closed tuple.  cycle_class
serves the tests' bar-complex oracle.  The module imports nothing
outside the standard library but groups, intlinalg and records.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .groups import (DomainError, _right_generators, abelianization,
                     centralizer, closure)
from .intlinalg import IntegerLattice, PresentedAbelianGroup, subgroup_quotient
from .records import Frozen, Record

__all__ = [
    "h2_group",
    "H2Group",
    "c_tori_subgroup",
    "m_g_c",
    "n_lattice",
    "h2_bgc",
    "h1_bgc",
    "pi1_bgc_order",
    "BgcH2",
    "lifting_invariant",
    "DoublingError",
]


class HomologyError(DomainError):
    pass


class DoublingError(DomainError):
    """Tuples that have no difference class: different levels, a
    non-surjective tuple, one off the surface relation, or a branch class
    outside C."""


def _is_cycle(G, chain):
    """Exact d2 of a chain {(x, y): coeff} vanishes:
    d[x|y] = [y] - [xy] + [x], [1] dropped."""
    d = [0] * G.order
    for (x, y), c in chain.items():
        if x and y:
            d[y] += c
            d[G.mul[x][y]] -= c
            d[x] += c
    return not any(d[1:])


class H2Group(Record):
    """presentation maps Z^S, S the Schreier generators of h2_group, onto
    H2; f[x][y] holds the H2 coordinates of the cocycle f(x, y).
    rewrite(x, zero, step) is h2_group's rewriting of every t_g from coset
    x, from which f is built on first use."""

    _fields = ("group", "presentation")

    def __init__(self, group, presentation, rewrite):
        self.group = group
        self.presentation = presentation
        self.rewrite = rewrite

    @cached_property
    def f(self):
        P = self.presentation
        col = [tuple(row[s] for row in P.transform)
               for s in range(P.ambient_dim)]
        return [self.rewrite(x, P.zero(), lambda v, s: P.add(v, col[s]))
                for x in range(self.group.order)]

    @property
    def invariant_factors(self):
        return self.presentation.invariant_factors

    def cycle_class(self, chain):
        """H2 coordinates of a 2-cycle given as {(x, y): coeff}, sum
        coeff f(x, y); raises if the chain is not a cycle."""
        if not _is_cycle(self.group, chain):
            raise HomologyError("chain is not a d2-cycle")
        out = [0] * self.presentation.num_slots
        for (x, y), c in chain.items():
            for k, a in enumerate(self.f[x][y]):
                out[k] += c * a
        return self.presentation.reduce(out)

    @cached_property
    def lifts(self):
        """lifts[y]: H2 coordinates of (0, x)(0, r)(0, x)^{-1} = (a, y) in
        H2 x_f G, (a, x)(b, z) = (a + b + f(x, z), xz), r the representative
        of y's class and x the least element with x r x^{-1} = y."""
        G, f, P = self.group, self.f, self.presentation
        out = [None] * G.order
        for r in G.class_reps:
            for x in range(G.order):
                y = G.conj(r, x)
                if out[y] is None:
                    xr, xi = G.mul[x][r], G.inv[x]
                    out[y] = P.sub(P.add(f[x][r], f[xr][xi]), f[x][xi])
        return out

    def word_class(self, t):
        """H2 coordinates of [a~_1, b~_1] ... l(c_1)^{o_1} ... l(c_n)^{o_n},
        each letter x lifted to (lifts[x], x) (Serre, C. R. Acad. Sci. Paris
        311, 1990; Fried and Voelklein, Math. Ann. 290, 1991); c_j is the
        branch element of puncture j.  Raises DoublingError when the
        product does not lie over 1."""
        f, lifts, mul, inv = self.f, self.lifts, self.group.mul, self.group.inv
        word = [(x, o) for a, b in t.handles
                for x, o in ((a, 1), (b, 1), (a, -1), (b, -1))]
        word += [(w if o == 1 else inv[w], o) for w, o in t.punctures]
        acc, p = [0] * self.presentation.num_slots, 0
        for c, o in word:
            a = lifts[c]
            if o == -1:  # (a, c)^{-1} = (-a - f(c, c^{-1}), c^{-1})
                a, c = [-u - v for u, v in zip(a, f[c][inv[c]])], inv[c]
            acc = [u + v + w for u, v, w in zip(acc, a, f[p][c])]
            p = mul[p][c]
        if p != 0:
            raise DoublingError("tuple violates the surface relation")
        return self.presentation.reduce(acc)


_H2_CACHE = {}


def h2_group(G):
    """H2(G) by Hopf's formula, with a cycle classifier.

    The transversal is breadth-first from 1 over X in order: the tree
    edge (g, i) is the first that reaches g x_i, and t_{g x_i} = t_g x_i.
    rewrite(y, ...) reads every t_g from coset y at once, down the tree:
    the step of edge (g, i) crosses s_{yg, x_i}, or nothing on a tree
    edge.  With f_y(g) = rho_y(t_g), the relation of s = s_{g, x_i} is
    rho_y(s) - s = f_y(g) + e(yg, x_i) - f_y(g x_i) - e(g, x_i), and
    f(x, y) is f_x(y) read in H2 coordinates."""
    key = G.digest
    if key in _H2_CACHE:
        return _H2_CACHE[key]
    N, mul, X = G.order, G.mul, _right_generators(G.mul)
    tree, bfs = {0: None}, [0]
    for g in bfs:
        for i, x in enumerate(X):
            if mul[g][x] not in tree:
                tree[mul[g][x]] = (g, i)
                bfs.append(mul[g][x])
    gen = {}  # (g, i) -> index of s_{g, x_i}, for the edges off the tree
    for g in range(N):
        for i, x in enumerate(X):
            if tree[mul[g][x]] != (g, i):
                gen[g, i] = len(gen)

    def rewrite(y, zero, step):
        out = [zero] * N
        for h in bfs[1:]:
            g, i = tree[h]
            s = gen.get((mul[y][g], i))
            out[h] = out[g] if s is None else step(out[g], s)
        return out

    L = IntegerLattice(len(gen), N * N)
    for y in X:
        f_y = rewrite(y, {}, lambda v, s: {**v, s: 1})
        for (g, i), s in gen.items():
            v = Counter(f_y[g])
            v.subtract(f_y[mul[g][X[i]]])
            v[s] -= 1
            t = gen.get((mul[y][g], i))
            if t is not None:
                v[t] += 1
            L.add(v)
    Q = L.quotient()
    k = sum(d < N * N for d in Q.moduli)  # d_i | d_{i+1}: H2 comes first
    P = PresentedAbelianGroup(len(gen), Q.moduli[:k], Q.transform[:k])
    out = H2Group(G, P, rewrite)
    _H2_CACHE[key] = out
    return out


def c_tori_subgroup(G, class_ids):
    """H2 coordinates of all torus classes of (c, t), c running over
    representatives of the classes in C and t over the centralizer of c:
    the commutator of the lifts (0, c) and (0, t) in the extension of f,
    f(c, t) - f(t, c).  One representative per class suffices since
    conjugation acts trivially on H2."""
    H2 = h2_group(G)
    out = []
    for cid in sorted(set(class_ids)):
        c = G.class_reps[cid]
        for t in centralizer(G, c):
            out.append(H2.presentation.sub(H2.f[c][t], H2.f[t][c]))
    return out


_MGC_CACHE = {}


def m_g_c(G, class_ids):
    """(M(G)_C, projection from H2 coordinates), made once per G and C."""
    key = (G.digest, tuple(sorted(set(class_ids))))
    if key not in _MGC_CACHE:
        _MGC_CACHE[key] = subgroup_quotient(h2_group(G).presentation,
                                            c_tori_subgroup(G, key[1]))
    return _MGC_CACHE[key]


def n_lattice(G, class_ids):
    """Hermite normal form (list of rows) of the kernel N of
    Z^{C//G} -> G_ab sending a class to the abelianized image of its
    representative.

    |G| kills G_ab, so N contains |G|.Z^k.  A slot value x mod d is
    x.|G|/d mod |G|, so with s the slots of G_ab, N = {c : (0, c) in L}
    for the lattice L in Z^{s+k} spanned mod |G| by the rows (image of
    class i, each slot of modulus d scaled by |G|/d, then e_i).  By the
    Howell property the rows of L's echelon past column s span exactly
    N, and in reduced form they are N's Hermite normal form."""
    cids = sorted(set(class_ids))
    A, proj = abelianization(G)
    s, order = A.num_slots, G.order
    L = IntegerLattice(s + len(cids), order)
    for i, cid in enumerate(cids):
        v = {t: x * (order // d)
             for t, (x, d) in enumerate(zip(proj(G.class_reps[cid]),
                                            A.moduli))}
        v[s + i] = 1
        L.add(v)
    L.reduce()
    return [row[s:] for row in L.basis()[s:]]


class BgcH2(Frozen):
    _fields = ("m_part", "n_rank", "n_basis", "splitting")

    def __init__(self, m_part, n_rank, n_basis, splitting="non-canonical"):
        vars(self).update(m_part=m_part, n_rank=n_rank, n_basis=n_basis,
                          splitting=splitting)


def h2_bgc(G, class_ids):
    M, _ = m_g_c(G, class_ids)
    N = n_lattice(G, class_ids)
    return BgcH2(m_part=M, n_rank=len(N), n_basis=tuple(tuple(r) for r in N))


def h1_bgc(G, class_ids):
    """H1(BG_C), the abelianization of G/<<C>>: G_ab modulo the images of
    the class representatives of C (a conjugate has the same image)."""
    A, proj = abelianization(G)
    Q, _ = subgroup_quotient(A, [proj(G.class_reps[cid])
                                 for cid in sorted(set(class_ids))])
    return Q


def pi1_bgc_order(G, class_ids):
    """|G/<<C>>|: C is closed under conjugation, so the subgroup it
    generates is already normal."""
    elems = [x for x in range(G.order) if G.class_of[x] in set(class_ids)]
    return G.order // len(closure(G, elems))


def lifting_invariant(t, class_ids):
    """Lambda(t) in M(G)_C, C the union of the classes class_ids; raises
    DoublingError when a puncture's branch class lies outside C.  With C
    empty it is the Schur class of a closed tuple in H2 coordinates.  A
    lift of c in C through another conjugator differs from lifts[c] by a
    C-torus class, which the projection to M(G)_C kills."""
    G, classes = t.group, sorted(set(class_ids))
    for j in range(t.n):
        cid, _ = t.branch_class(j)
        if cid not in classes:
            raise DoublingError(f"branch class {cid} of puncture {j} is not "
                                f"in C = {classes}")
    _, proj = m_g_c(G, classes)
    return proj(h2_group(G).word_class(t))
