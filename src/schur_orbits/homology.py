"""Group homology through the normalized bar complex.

Second homology H2(G) is computed as ker d2 / im d3 on the normalized
bar bases (symbols with an identity entry are dropped, so the k-basis
has (|G|-1)^k symbols).  |G| annihilates H2(G), so in kernel-of-d2
coordinates |G|.Z^K lies inside im d3 and the image lattice can be
accumulated modulo |G| with every entry below |G| (the modular Hermite
form of Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987).  Kernel
coordinates, and the H2 presentation over them, are therefore kept
mod |G|, and everything is sparse and in Python ints: the Smith form of
d2 keeps its V^{-1} mod |G| as sparse rows, whose kernel rows W have a
single entry 1 each on every group measured, so W is kept by columns,
one per 2-symbol; a d3 image is the signed sum of the W columns of its
four symbols, a dict of at most four entries when W is that sparse; and
the image lattice is an intlinalg.IntegerLattice, a Howell echelon mod
|G| of dict rows, that absorbs the d3 images of the generator columns
only, which span it (see h2_group).  The quotient is presented from the
reduced Howell form of its relations (J. A. Howell, Linear Multilinear
Algebra 19, 1986), which is unique for its lattice, so the H2
coordinates depend on that lattice alone.  On top of that sit the
branch-class reductions: the subgroup of torus classes with meridian in
a chosen union of conjugacy classes C, the reduced multiplier M(G)_C,
the branch-type lattice N, whose Hermite normal form is read from an
IntegerLattice mod |G| too, and the homology of the C-branched
classifying space reported as the (non-natural) direct sum M(G)_C + N.
The module imports nothing outside the standard library but groups,
intlinalg and records.
"""

from __future__ import annotations

from .groups import DomainError, abelianization, centralizer, closure
from .intlinalg import IntegerLattice, snf_with_inverse, subgroup_quotient
from .records import Frozen, Record

__all__ = [
    "boundary_matrix",
    "h2_group",
    "H2Group",
    "torus_cycle",
    "c_tori_subgroup",
    "m_g_c",
    "n_lattice",
    "h2_bgc",
    "h1_bgc",
    "pi1_bgc_order",
    "BgcH2",
    "sch_unbranched",
]

BAR_SIZE_CAP = 64  # group order cap for bar-complex computations

_D3_SIGNS = (1, -1, 1, -1)  # of the four symbols _d3_columns gives


class HomologyError(DomainError):
    pass


def _pair_index(G, x, y):
    m = G.order - 1
    return (x - 1) * m + (y - 1)


def boundary_matrix(G, k):
    """Dense matrix of d_k on normalized bar bases, columns indexed
    lexicographically by element indices."""
    if G.order > BAR_SIZE_CAP:
        raise HomologyError(f"group order {G.order} over bar-complex cap")
    m = G.order - 1
    if k == 2:
        rows, cols = m, m * m
        M = [[0] * cols for _ in range(rows)]
        for x in range(1, G.order):
            for y in range(1, G.order):
                j = _pair_index(G, x, y)
                M[y - 1][j] += 1
                M[x - 1][j] += 1
                xy = G.mul[x][y]
                if xy:
                    M[xy - 1][j] -= 1
        return M
    if k == 3:
        M = [[0] * (m * m * m) for _ in range(m * m + 1)]
        for j, col in enumerate(_d3_columns(G, range(1, G.order))):
            for i, c in zip(col, _D3_SIGNS):
                M[i][j] += c
        return M[:-1]  # the row of symbols with an identity entry
    raise HomologyError(f"unsupported boundary degree {k}")


def _d3_columns(G, last):
    """The columns d3[x|y|z] = [y|z] - [xy|z] + [x|yz] - [x|y], for x, y
    != 1 and z in last, in lexicographic order of (x, y, z), each as the
    2-basis indices of its four symbols, whose signs are _D3_SIGNS.  A
    symbol with an identity entry has the index m^2, one past the basis.
    Both the d2 . d3 check and the image lattice read these columns."""
    N, m = G.order, G.order - 1
    pair = [[m * m] * N] + [[m * m, *range((x - 1) * m, x * m)]
                            for x in range(1, N)]
    last = list(last)
    for x in range(1, N):
        px, mx = pair[x], G.mul[x]
        for y in range(1, N):
            py, pxy, my, xy = pair[y], pair[mx[y]], G.mul[y], px[y]
            for z in last:
                yield py[z], pxy[z], px[my[z]], xy


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
    """presentation is over the kernel coordinates mod |G|.  _coords
    holds the kernel coordinates W (rows r.. of the d2 Smith form's
    V^{-1}, mod |G|) by columns: entry p lists the nonzero (k, W[k, p])
    of 2-symbol p, and entry m^2, a symbol with an identity entry, is
    ()."""

    _fields = ("group", "presentation", "_coords")

    def __init__(self, group, presentation, _coords):
        self.group = group
        self.presentation = presentation
        self._coords = _coords

    @property
    def invariant_factors(self):
        return self.presentation.invariant_factors

    def kernel_coords(self, chain):
        """Coordinates mod |G| of a 2-cycle in the kernel lattice of d2;
        raises if the chain is not a cycle."""
        G = self.group
        if not _is_cycle(G, chain):
            raise HomologyError("chain is not a d2-cycle")
        out = [0] * self.presentation.ambient_dim
        for (x, y), c in chain.items():
            if x and y:
                for k, w in self._coords[_pair_index(G, x, y)]:
                    out[k] += c * w
        return [t % G.order for t in out]

    def cycle_class(self, chain):
        """H2 coordinates of a 2-cycle given as {(x, y): coeff}."""
        return self.presentation.to_coords(self.kernel_coords(chain))


def _d2_kernel(G):
    """(W, K): the K kernel coordinates of d2 mod |G| by columns, as
    H2Group._coords keeps them, once d2 . d3 = 0 is checked.

    The check runs over all (|G|-1)^3 columns of d3.  Column p of d2 is
    encoded as the integer sum_e d2[e, p] 32^e.  An entry of d2 . d3
    sums four d2 entries, each in [-2, 2], so it lies in [-8, 8], and a
    d3 column passes iff the codes of its four symbols, with their
    signs, sum to 0.  The Smith form of d2, whose rows of V^{-1} before
    the rank fill in, is dropped on return, before the absorption
    peaks."""
    N, m = G.order, G.order - 1
    D2 = boundary_matrix(G, 2)
    code = [0] * (m * m + 1)  # the last is a symbol with an identity entry
    for e, row in enumerate(D2):
        for p, c in enumerate(row):
            if c:
                code[p] += c << 5 * e
    if any(code[a] - code[b] + code[c] - code[d]
           for a, b, c, d in _d3_columns(G, range(1, N))):
        raise HomologyError("d2 . d3 != 0 (bar complex bug)")
    res = snf_with_inverse(D2, modulus=N)
    W = [[] for _ in range(m * m + 1)]
    for k, row in enumerate(res.Vinv[res.rank:]):
        for p, x in row.items():
            W[p].append((k, x))
    return [tuple(col) for col in W], len(res.Vinv) - res.rank


_H2_CACHE = {}


def h2_group(G):
    """H2(G) from the normalized bar complex, with a cycle classifier.

    Lemma: with S the generators of G other than the identity,
    im d3 = span{d3[x|y|s] : x, y != 1, s in S}.  Proof: d3 . d4 = 0
    applied to [x|y|z|w] gives
    d3[x|y|zw] = d3[y|z|w] - d3[xy|z|w] + d3[x|yz|w] + d3[x|y|z].
    Take w in S.  The first three terms are generator columns (or 0, a
    symbol with an identity entry), and the last has a last entry of
    shorter word length over S.  Induct on that length, ending at
    [x|y|s] or at [x|y|1] = 0; in a finite group S generates G as a
    monoid, so every z has a word over S.

    So the (|G|-1)^2 |S| generator columns span the image lattice, and
    only they are absorbed.  IntegerLattice.quotient presents the
    quotient from the reduced Howell form of its relations, so the H2 coordinates
    depend on the image lattice alone, whatever generators G was given.
    The d2 . d3 check runs over all columns (see _d2_kernel)."""
    key = G.digest
    if key in _H2_CACHE:
        return _H2_CACHE[key]
    if G.order > BAR_SIZE_CAP:
        raise HomologyError(f"group order {G.order} over bar-complex cap")
    W, K = _d2_kernel(G)
    E = IntegerLattice(K, G.order)
    for col in _d3_columns(G, sorted({s for s in G.generators if s})):
        v = {}
        for p, sign in zip(col, _D3_SIGNS):
            for k, x in W[p]:
                v[k] = v.get(k, 0) + sign * x
        E.add(v)
    out = H2Group(G, E.quotient(), W)
    _H2_CACHE[key] = out
    return out


def torus_cycle(G, a, b):
    """The 2-cycle [a|b] - [b|a] of a commuting pair."""
    if G.mul[a][b] != G.mul[b][a]:
        raise HomologyError("torus cycle needs a commuting pair")
    chain = {}
    chain[(a, b)] = chain.get((a, b), 0) + 1
    chain[(b, a)] = chain.get((b, a), 0) - 1
    return {k: v for k, v in chain.items() if v and 0 not in k}


def c_tori_subgroup(G, class_ids):
    """H2 coordinates of all torus classes [c|t] - [t|c] with c running
    over representatives of the classes in C and t over the centralizer
    of c.  One representative per class suffices since conjugation acts
    trivially on H2."""
    H2 = h2_group(G)
    out = []
    for cid in sorted(set(class_ids)):
        c = G.class_reps[cid]
        for t in centralizer(G, c):
            out.append(H2.cycle_class(torus_cycle(G, c, t)))
    return out


def m_g_c(G, class_ids):
    """(M(G)_C, projection from H2 coordinates)."""
    H2 = h2_group(G)
    gens = c_tori_subgroup(G, class_ids)
    return subgroup_quotient(H2.presentation, gens)


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


def unbranched_cycle(G, handles):
    """The polygon 2-chain of a closed tuple with commutator word 1.

    For the relator word g_1 ... g_{4g} = a_1 b_1 a_1' b_1' ... (primes
    are inverses) the chain is sum_k [p_k | g_{k+1}] over partial
    products p_k, minus sum_i ([a_i|a_i'] + [b_i|b_i']).
    """
    word = []
    for a, b in handles:
        word.extend([a, b, G.inv[a], G.inv[b]])
    p = 0
    for w in word:
        p = G.mul[p][w]
    if p != 0:
        raise HomologyError("commutator word is not the identity")
    chain = {}

    def bump(x, y, c):
        if x and y and c:
            chain[(x, y)] = chain.get((x, y), 0) + c

    p = word[0] if word else 0
    for k in range(1, len(word)):
        bump(p, word[k], 1)
        p = G.mul[p][word[k]]
    for a, b in handles:
        bump(a, G.inv[a], -1)
        bump(b, G.inv[b], -1)
    return {k: v for k, v in chain.items() if v}


def sch_unbranched(G, handles):
    """H2 class of a closed unbranched tuple (list of handle pairs with
    total commutator word the identity)."""
    H2 = h2_group(G)
    return H2.cycle_class(unbranched_cycle(G, handles))

