"""H2 the direct, dense way, through the normalized bar complex, kept as
an oracle for `homology.h2_group`, which uses Hopf's formula instead.

d2 and d3 are built here, on the normalized bar bases (symbols with an
identity entry are dropped, so the k-basis has (|G|-1)^k symbols).  The
kernel coordinates W are rows rank.. of the exact Smith form's V^{-1}
of d2, in Python integers, reduced mod |G| afterwards, since |G| kills
H2, and stored as a dense int64 matrix.  d3 is a dense (row index,
coefficient) table over all (|G|-1)^3 columns, imaged a chunk of
columns at a time as dense vectors over all K kernel coordinates, and
absorbed in lexicographic order into a dense int64 Howell echelon mod
|G|.  `h2_group` presents R/[F,R] mod |G|^2 over the Schreier
generators and classifies a cycle by its Hopf cocycle, so the two
presentations share no basis: they are compared as maps from bar
2-cycles, which must agree up to an automorphism of H2.  Nothing here
comes from `homology`.  The exact Smith form, and the exact cokernel
that presents the relations with the Smith form's U, are those of
`tests/intlinalg_oracle.py`.  Only `_xgcd` and the value class
PresentedAbelianGroup come from `intlinalg`.  The bar complex costs
(|G|-1)^3 columns, so the oracle stays on small groups.
"""

from dataclasses import dataclass

import numpy as np

from schur_orbits.intlinalg import PresentedAbelianGroup, _xgcd

from intlinalg_oracle import cokernel, snf_with_inverse

CHUNK = 256  # d3 columns imaged at a time


def _d3_sparse(G):
    """d3 as (row index, coefficient) arrays of shape (m^3, 4), one row
    per column [x|y|z] in lexicographic order:
    d[x|y|z] = [y|z] - [xy|z] + [x|yz] - [x|y], symbols with an identity
    entry carrying coefficient 0 and index 0.  Repeated indices add up."""
    m = G.order - 1
    mul = np.array(G.mul, dtype=np.int64)
    pair = np.zeros((G.order, G.order), dtype=np.int64)  # index of [x|y]
    pair[1:, 1:] = np.arange(m * m).reshape(m, m)
    e = np.arange(1, G.order)
    x, y, z = (a.ravel() for a in np.meshgrid(e, e, e, indexing="ij"))
    xy, yz = mul[x, y], mul[y, z]
    ones = np.ones(m ** 3, dtype=np.int64)
    coeff = np.stack([ones, -(xy != 0).astype(np.int64),
                      (yz != 0).astype(np.int64), -ones], axis=1)
    idx = np.stack([pair[y, z], pair[xy, z], pair[x, yz], pair[x, y]],
                   axis=1)
    return idx, coeff


def boundary_matrix(G, k):
    """Dense matrix of d_k, k = 2 or 3, on normalized bar bases, columns
    indexed lexicographically by element indices."""
    m = G.order - 1
    if k == 2:
        M = [[0] * (m * m) for _ in range(m)]
        for x in range(1, G.order):
            for y in range(1, G.order):
                j = (x - 1) * m + y - 1
                M[y - 1][j] += 1
                M[x - 1][j] += 1
                if G.mul[x][y]:
                    M[G.mul[x][y] - 1][j] -= 1
        return M
    if k == 3:
        idx, coeff = _d3_sparse(G)
        M = np.zeros((m * m, m ** 3), dtype=np.int64)
        np.add.at(M, (idx, np.arange(m ** 3)[:, None]), coeff)
        return M.tolist()
    raise ValueError(f"unsupported boundary degree {k}")


def _absorb(H, piv, v, N):
    """Add the row v to the dense int64 echelon H mod N, whole rows at a
    time.  Row j of H vanishes left of column j and H[j, j] = piv[j], a
    divisor of N, or 0 with piv[j] = N for an empty row.  A new pivot g
    reduces every row above it whose entry in its column is at least g.
    Returns True if the lattice of H and N.Z^K grew."""
    grew = False
    v = np.asarray(v, dtype=np.int64) % N
    while True:
        nz = np.flatnonzero(v)
        if not len(nz):
            return grew
        j = nz[0]
        a, p = int(v[j]), piv[j]
        if a % p == 0:
            v = (v - a // p * H[j]) % N
            continue
        g, x, y = _xgcd(p, a)
        r = (x * H[j] + y * v) % N  # r[j] = g: x p + y a = g
        v = (p // g * v - a // g * H[j]) % N
        H[j], piv[j] = r, g
        grew = True
        above = np.flatnonzero(H[:j, j] >= g)
        H[above] = (H[above] - H[above, j:j + 1] // g * r) % N


def _echelon_cokernel(H, piv, N):
    """Z^K / (rows of H + N.Z^K): every e_j written over the non-unit
    pivot columns S by substituting the unit-pivot rows right to left,
    the relations among those put into reduced Howell form, and the
    transform rows reduced mod their moduli."""
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


@dataclass
class DenseH2:
    group: object
    presentation: PresentedAbelianGroup
    W: np.ndarray  # K x (|G|-1)^2 kernel coordinates mod |G|, int64

    @property
    def invariant_factors(self):
        return self.presentation.invariant_factors

    def cycle_class(self, chain):
        G = self.group
        v = np.zeros(self.W.shape[1], dtype=np.int64)
        for (x, y), c in chain.items():
            if x and y:
                v[(x - 1) * (G.order - 1) + y - 1] += c
        return self.presentation.to_coords((self.W @ v % G.order).tolist())


def h2_oracle(G):
    N, m = G.order, G.order - 1
    res = snf_with_inverse(boundary_matrix(G, 2))
    W = np.array([[x % N for x in row] for row in res.Vinv[res.rank:]],
                 dtype=np.int64).reshape(-1, m * m)
    K = len(W)
    H, piv = np.zeros((K, K), dtype=np.int64), [N] * K
    idx, coeff = _d3_sparse(G)
    for s in range(0, len(idx), CHUNK):
        ci, cc = idx[s:s + CHUNK], coeff[s:s + CHUNK]
        images = sum(W[:, ci[:, k]] * cc[:, k] for k in range(4)) % N
        for v in images.T[images.any(axis=0)]:
            _absorb(H, piv, v, N)
    return DenseH2(G, _echelon_cokernel(H, piv, N), W)
