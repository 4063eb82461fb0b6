"""Group homology through the normalized bar complex.

Second homology H2(G) is computed as ker d2 / im d3 on the normalized
bar bases (symbols with an identity entry are dropped, so the k-basis
has (|G|-1)^k symbols).  |G| annihilates H2(G), so in kernel-of-d2
coordinates |G|.Z^K lies inside im d3 and the image lattice can be
accumulated modulo |G| with every entry below |G| (the modular Hermite
form of Domich, Kannan and Trotter, Math. Oper. Res. 12, 1987).  Kernel
coordinates, and the H2 presentation over them, are therefore kept
mod |G|: the Smith form of d2 reduces d2 itself in exact Python
integers but keeps its V^{-1} mod |G| in uint8, and the image lattice,
a uint8 echelon, absorbs the d3 images of the generator columns only,
which span it (see h2_group).  The quotient is presented from the
reduced Howell form of its relations (J. A. Howell, Linear Multilinear
Algebra 19, 1986), which is unique for its lattice, so the H2
coordinates depend on that lattice alone.  On top of that sit the
branch-class reductions: the subgroup of torus classes with meridian in
a chosen union of conjugacy classes C, the reduced multiplier M(G)_C,
the branch-type lattice N, and the homology of the C-branched
classifying space reported as the (non-natural) direct sum M(G)_C + N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import DomainError, abelianization, centralizer, closure
from .intlinalg import (
    IntegerLattice,
    PresentedAbelianGroup,
    _xgcd,
    cokernel,
    kernel_lattice,
    snf_with_inverse,
    subgroup_quotient,
)

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

# d3 columns imaged or checked at a time.  Peak RSS of h2_group on a
# 2-CPU Xeon VM, 33 MiB before: (Z/2)^5 37.2 MiB at 128, 38.7 at 256,
# 45.1 at 1024, 57.5 at once; A5 66.6, 71.7, 98.4 and 178.4 MiB.
_D3_CHUNK = 128
_ABOVE_ROWS = 64  # echelon rows reduced at a time above a new pivot


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
        M = [[0] * (m * m * m) for _ in range(m * m)]
        idx, coeff = _d3_sparse(G)
        for j, (rows, cs) in enumerate(zip(idx.tolist(), coeff.tolist())):
            for i, c in zip(rows, cs):
                M[i][j] += c
        return M
    raise HomologyError(f"unsupported boundary degree {k}")


def _d3_sparse(G):
    """d3 as (row index, coefficient) arrays of shape (m^3, 4), one row
    per column [x|y|z] in lexicographic order:
    d[x|y|z] = [y|z] - [xy|z] + [x|yz] - [x|y], symbols with an identity
    entry carrying coefficient 0 and index 0.  Repeated indices add up.
    Indices are the narrowest unsigned dtype, coefficients int8."""
    m = G.order - 1
    et, it = np.min_scalar_type(m), np.min_scalar_type(m * m)
    mul = np.array(G.mul, dtype=et)
    pair = np.zeros((G.order, G.order), dtype=it)  # index of [x|y]
    pair[1:, 1:] = np.arange(m * m, dtype=it).reshape(m, m)
    e = np.arange(1, G.order, dtype=et)
    x, y, z = (a.ravel() for a in np.meshgrid(e, e, e, indexing="ij"))
    xy, yz = mul[x, y], mul[y, z]
    ones = np.ones(m ** 3, dtype=np.int8)
    coeff = np.stack([ones, -(xy != 0).astype(np.int8),
                      (yz != 0).astype(np.int8), -ones], axis=1)
    idx = np.stack([pair[y, z], pair[xy, z], pair[x, yz], pair[x, y]],
                   axis=1)
    return idx, coeff


def _chain_vector(G, chain):
    """Dict {(x, y): coeff} -> dense coefficient list over the 2-basis.
    Symbols containing the identity are dropped."""
    m = G.order - 1
    v = [0] * (m * m)
    for (x, y), c in chain.items():
        if x == 0 or y == 0 or c == 0:
            continue
        v[_pair_index(G, x, y)] += c
    return v


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


@dataclass
class H2Group:
    group: object
    presentation: PresentedAbelianGroup  # over kernel coordinates mod |G|
    # rows r.. of the d2 Smith form's V^{-1}, mod |G|, in uint8
    _coords: np.ndarray

    @property
    def invariant_factors(self):
        return self.presentation.invariant_factors

    def kernel_coords(self, chain):
        """Coordinates mod |G| of a 2-cycle in the kernel lattice of d2;
        raises if the chain is not a cycle."""
        G = self.group
        if not _is_cycle(G, chain):
            raise HomologyError("chain is not a d2-cycle")
        v = np.array([c % G.order for c in _chain_vector(G, chain)],
                     dtype=np.int64)
        nz = np.flatnonzero(v)  # widen only the chain's support
        return [int(t) for t in
                self._coords[:, nz].astype(np.int64) @ v[nz] % G.order]

    def cycle_class(self, chain):
        """H2 coordinates of a 2-cycle given as {(x, y): coeff}."""
        return self.presentation.to_coords(self.kernel_coords(chain))


def _absorb(H, piv, v, N, supports=None):
    """Add the row v (entries mod N) to the echelon H mod N.

    Row j of H has zeros left of column j and pivot piv[j] = H[j, j],
    a divisor of N; an empty row has pivot N (the row N.e_j, which is
    0 mod N).  The lattice spanned by H and N.Z^K only grows.  Entries
    stay below N <= BAR_SIZE_CAP, so H may be uint8 or int64.  Returns
    True if the lattice grew.

    v is reduced as a {column: entry} dict of Python ints: a step on row
    j changes v only on that row's support, so the next column to reduce
    is the least key left, and v is never scanned.  The supports of the
    rows right of their pivots are read from H once and kept in
    supports, a dict that a caller may pass to every _absorb on the same
    H; a row is dropped from it when it changes.  A new pivot's update of
    the rows above it widens only the new row's support, _ABOVE_ROWS rows
    at a time, and nothing in the arithmetic exceeds 2 N^2.

    A new row r with pivot g leaves (N/g).r in the span of the rows
    below it, since the v reduced on carries that multiple.  So H is a
    Howell form (J. A. Howell, Linear Multilinear Algebra 19, 1986):
    piv[j] generates the ideal of j-th entries of the lattice vectors
    that vanish left of j, the pivots depend on the lattice alone, and a
    vector already in the lattice reduces to 0 without changing H."""
    supports = {} if supports is None else supports
    grew = False
    nz = v.nonzero()[0]
    w = {k: x % N for k, x in zip(nz.tolist(), v[nz].tolist())}
    while w:
        j = min(w)
        a = w.pop(j)
        if not a:
            continue
        p, row = piv[j], H[j]  # row vanishes left of j, as w does
        h = supports.get(j)
        if h is None:
            hc = row[j + 1:].nonzero()[0] + (j + 1)
            h = supports[j] = dict(zip(hc.tolist(), row[hc].tolist()))
        if a % p == 0:
            q = a // p
            for k, hk in h.items():
                w[k] = (w.get(k, 0) - q * hk) % N
        else:
            # the new row and the rest of v over the union of supports;
            # column j of v becomes 0
            g, x, y = _xgcd(p, a)
            cols = w.keys() | h.keys()
            r = {k: (x * h.get(k, 0) + y * w.get(k, 0)) % N for k in cols}
            w = {k: (p // g * w.get(k, 0) - a // g * h.get(k, 0)) % N
                 for k in cols}
            row[list(h)] = 0
            row[list(r)] = list(r.values())
            row[j] = piv[j] = g
            grew = True
            # reducing the rows above the new pivot keeps later reductions
            # short: without it h2_group takes 0.37-0.41 s on (Z/2)^5, not
            # 0.30
            above = np.flatnonzero(H[:j, j] >= g)
            for i in [j, *above.tolist()]:
                supports.pop(i, None)
            # only the columns of the new row's support change
            rc = np.flatnonzero(row[j:]) + j
            r = row[rc].astype(np.int64)
            for s in range(0, len(above), _ABOVE_ROWS):
                at = np.ix_(above[s:s + _ABOVE_ROWS], rc)
                block = H[at].astype(np.int64)
                block -= block[:, :1] // g * r
                H[at] = block % N
    return grew


def _echelon_cokernel(H, piv, N):
    """Z^K / (rows of H + N.Z^K) with its transform rows mod their moduli.

    A unit-pivot row says e_j = -(H[j, j+1:] . e), so substituting those
    right to left writes every e_j over the non-unit pivot columns S, up
    to the lattice L_S of relations among those; the non-unit rows, plus
    N.I, span L_S.  The relations are put into the reduced Howell form
    of L_S (every entry above a pivot in [0, pivot)), which is unique for
    its lattice.  A transform row maps L_S into d.Z for its modulus d, so
    reducing it mod d removes the choice of substitution.  The
    presentation thus depends on the lattice alone, not on the order in
    which H absorbed it."""
    K = len(piv)
    S = [j for j in range(K) if piv[j] != 1]
    P = np.zeros((K, len(S)), dtype=np.int64)  # e_j over the columns S
    P[S, np.arange(len(S))] = 1
    for j in reversed(range(K)):
        if piv[j] == 1:
            P[j] = -(H[j, j + 1:] @ P[j + 1:]) % N
    R, rpiv = np.zeros((len(S), len(S)), dtype=np.int64), [N] * len(S)
    for j in S:
        _absorb(R, rpiv, H[j] @ P % N, N)
    for j in range(len(S)):
        for k in range(j + 1, len(S)):
            R[j, k:] = (R[j, k:] - R[j, k] // rpiv[k] * R[k, k:]) % N
    rels = [row for row, p in zip(R.tolist(), rpiv) if p < N]
    rels += (N * np.eye(len(S), dtype=np.int64)).tolist()
    pres = cokernel([list(col) for col in zip(*rels)], ambient_dim=len(S))
    transform = tuple(
        tuple(int(t) for t in np.array([c % d for c in row]) @ P.T % d)
        for d, row in zip(pres.moduli, pres.transform))
    return PresentedAbelianGroup(K, pres.moduli, transform)


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
    only they are absorbed.  _echelon_cokernel presents the quotient
    from the reduced Howell form of its relations, so the H2 coordinates
    depend on the image lattice alone, whatever generators G was given.
    The d2 . d3 check runs over all columns.  Images are int16: four
    terms, each below |G| in absolute value."""
    key = G.digest
    if key in _H2_CACHE:
        return _H2_CACHE[key]
    if G.order > BAR_SIZE_CAP:
        raise HomologyError(f"group order {G.order} over bar-complex cap")
    N, m = G.order, G.order - 1
    D2 = boundary_matrix(G, 2)
    res = snf_with_inverse(D2, modulus=N)
    W = res.Vinv[res.rank:]  # kernel coordinates mod N
    idx, coeff = _d3_sparse(G)
    # int8 suffices: d2 entries lie in [-1, 2], so each sum is at most 8
    D2T = np.array(D2, dtype=np.int8).T.copy()
    for s in range(0, len(idx), _D3_CHUNK):
        ci, cc = idx[s:s + _D3_CHUNK], coeff[s:s + _D3_CHUNK]
        if sum(D2T[ci[:, k]] * cc[:, k:k + 1] for k in range(4)).any():
            raise HomologyError("d2 . d3 != 0 (bar complex bug)")

    S = np.array(sorted({s for s in G.generators if s}), dtype=np.int64)
    cols = (np.arange(m * m)[:, None] * m + S - 1).ravel()
    H = np.zeros((len(W), len(W)), dtype=np.uint8)
    piv = [N] * len(W)
    supports = {}
    for s in range(0, len(cols), _D3_CHUNK):
        chunk = cols[s:s + _D3_CHUNK]
        ci, cc = idx[chunk], coeff[chunk]
        images = sum(W[:, ci[:, k]] * cc[:, k] for k in range(4)) % N
        for v in images.T[images.any(axis=0)]:
            _absorb(H, piv, v, N, supports)
    out = H2Group(G, _echelon_cokernel(H, piv, N), W)
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
    """Basis (list of rows) of the kernel N of Z^{C//G} -> G_ab sending a
    class to the abelianized image of its representative."""
    cids = sorted(set(class_ids))
    k = len(cids)
    if k == 0:
        return []
    A, proj = abelianization(G)
    s = A.num_slots
    cols = []
    for cid in cids:
        cols.append(list(proj(G.class_reps[cid])))
    for i, d in enumerate(A.moduli):
        if d:
            cols.append([d if j == i else 0 for j in range(s)])
    if s == 0:
        return [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    M = [[col[i] for col in cols] for i in range(s)]
    basis = kernel_lattice(M)
    lat = IntegerLattice(k)
    for v in basis:
        lat.add(v[:k])
    return lat.basis()


@dataclass(frozen=True)
class BgcH2:
    m_part: PresentedAbelianGroup
    n_rank: int
    n_basis: tuple
    splitting: str = "non-canonical"


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

