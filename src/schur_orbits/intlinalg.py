"""Integer matrix algebra in Python ints: lattices mod N and the finite
abelian groups they present.

IntegerLattice keeps a lattice in Z^n that contains N.Z^n as a Howell
form mod N (J. A. Howell, Linear Multilinear Algebra 19, 1986), the
modular Hermite form of Domich, Kannan and Trotter (Math. Oper. Res.
12, 1987), so every entry stays below N.  A finite abelian group killed
by N is determined mod N.  Every one that `groups` and `homology`
compute is presented by `IntegerLattice.quotient`, which diagonalizes
its relations by the Smith form mod N, `snf_with_inverse`, the only
Smith form here: G_ab, M(G)_C and H1(BG_C) mod |G| through `cokernel`
and `subgroup_quotient`, and R/[F,R] of Hopf's formula mod |G|^2
directly, whose slots of modulus below |G|^2 are H2.  No elimination
here is exact.  Nothing here imports anything outside the standard
library but records.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod

from .records import Frozen

__all__ = [
    "snf_with_inverse",
    "cokernel",
    "subgroup_quotient",
    "PresentedAbelianGroup",
    "IntegerLattice",
]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def snf_with_inverse(M, modulus):
    """(moduli, U) presenting Z^r / (columns of M + N.Z^r), M an r x c
    integer matrix and N = modulus >= 1, by the Smith form over Z/N.

    The name is kept because perfbench/trace_job.py patches it by name,
    and IntegerLattice.quotient calls it through this module's globals,
    so the patch times every call.

    M is reduced mod N first: that adds a vector of N.Z^r.  The pivot is
    the least nonzero entry (ties: lowest row, then column), and row and
    column t are cleared by division steps, all mod N, a remainder
    becoming the smaller pivot.  Then N.e_t turns the pivot into
    d_t = gcd(pivot, N), and a row with an entry that d_t does not
    divide is added to row t, so d_t divides every later modulus; a row
    left without a pivot has modulus N.  So with d_i the exact diagonal
    of M, 0 past its rank, the moduli are the gcd(d_i, N) above 1.  U,
    the row operations mod N, is invertible mod N, and
    v -> (U v)_t mod d_t is the quotient map.  Slots of modulus 1 are
    dropped, with their rows of U."""
    if modulus < 1:
        raise ValueError(f"modulus {modulus} is not positive")
    N, r, c = modulus, len(M), len(M[0]) if M else 0
    # each row of M mod N, then its row of U
    B = [[x % N for x in row] + [int(i == j) for j in range(r)]
         for i, row in enumerate(M)]

    def row_add(i, j, q):  # row_i += q * row_j
        B[i] = [(a + q * b) % N for a, b in zip(B[i], B[j])]

    def col_add(j, i, q):  # col_j += q * col_i
        for row in B:
            row[j] = (row[j] + q * row[i]) % N

    def col_swap(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]

    moduli = [N] * r
    for t in range(min(r, c)):
        nonzero = [(B[i][j], i, j) for i in range(t, r)
                   for j in range(t, c) if B[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        B[i], B[t] = B[t], B[i]
        col_swap(j, t)
        while True:
            dirty = False
            for i in range(t + 1, r):
                if B[i][t]:
                    row_add(i, t, -(B[i][t] // B[t][t]))
                    if B[i][t]:  # remainder becomes the smaller pivot
                        B[i], B[t] = B[t], B[i]
                        dirty = True
            for j in range(t + 1, c):
                if B[t][j]:
                    col_add(j, t, -(B[t][j] // B[t][t]))
                    if B[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            d = B[t][t] = gcd(B[t][t], N)
            offender = next((i for i in range(t + 1, r)
                             if any(x % d for x in B[i][t + 1:c])), None)
            if offender is None:
                break
            row_add(t, offender, 1)
        moduli[t] = d
    keep = [t for t in range(r) if moduli[t] > 1]
    return tuple(moduli[t] for t in keep), [B[t][c:] for t in keep]


class PresentedAbelianGroup(Frozen):
    """Finite abelian group Z^ambient / L in invariant-factor
    coordinates.

    ``moduli`` holds one modulus d >= 2 per coordinate slot, with
    d_i | d_{i+1}.  ``transform`` has one row per slot, each of length
    ambient_dim, and maps an ambient integer vector to its slot values;
    reduction mod the moduli happens in to_coords.
    """

    _fields = ("ambient_dim", "moduli", "transform")

    def __init__(self, ambient_dim, moduli, transform):
        vars(self).update(ambient_dim=ambient_dim, moduli=moduli,
                          transform=transform)

    @property
    def invariant_factors(self):
        return self.moduli

    @property
    def num_slots(self):
        return len(self.moduli)

    def order(self):
        return prod(self.moduli)

    def zero(self):
        return (0,) * len(self.moduli)

    def to_coords(self, vec):
        vec = list(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError(
                f"expected ambient vector of length {self.ambient_dim}, got {len(vec)}"
            )
        return tuple(sum(a * b for a, b in zip(row, vec)) % d
                     for d, row in zip(self.moduli, self.transform))

    def reduce(self, coords):
        return tuple(x % d for x, d in zip(coords, self.moduli))

    def add(self, a, b):
        return self.reduce(x + y for x, y in zip(a, b))

    def neg(self, a):
        return self.reduce(-x for x in a)

    def sub(self, a, b):
        return self.reduce(x - y for x, y in zip(a, b))

    def elements(self):
        return product(*map(range, self.moduli))


def cokernel(columns, n, modulus):
    """Z^n / (span of columns + N.Z^n), N = modulus, as a
    PresentedAbelianGroup: the columns, {index: entry} dicts, are
    absorbed into an IntegerLattice mod N and presented by its
    quotient."""
    L = IntegerLattice(n, modulus)
    for col in columns:
        L.add(col)
    return L.quotient()


def subgroup_quotient(A, gens):
    """Quotient of A by the subgroup generated by coordinate vectors.

    Returns (Q, projection) where projection maps A-coordinates to
    Q-coordinates.  The largest modulus of A kills A and Q.
    """
    n = A.num_slots
    cols = [{i: d} for i, d in enumerate(A.moduli)]
    for g in gens:
        if len(g) != n:
            raise ValueError(f"coordinate vector of length {len(g)}, expected {n}")
        cols.append(dict(enumerate(g)))
    Q = cokernel(cols, n, max(A.moduli, default=1))
    return Q, Q.to_coords


class IntegerLattice:
    """A lattice L in Z^n that contains N.Z^n, N = modulus, kept as an
    echelon mod N of dict rows and grown by add.

    rows[j] holds the nonzero entries of row j right of column j, each
    in [1, N), and piv[j] its pivot, a divisor of N; an empty row has
    pivot N (the row N.e_j, which is 0 mod N).  above[j] is the set of
    rows i < j with a nonzero entry in column j, the column index that
    the update of the rows above a new pivot reads.  The echelon is a
    Howell form (see add): for every j, the rows from j on and N.Z^n
    span the vectors of L that vanish left of column j."""

    def __init__(self, n, modulus):
        self.N = modulus
        self.rows = [{} for _ in range(n)]
        self.piv = [modulus] * n
        self.above = [set() for _ in range(n)]

    def add(self, v):
        """Add v, a {column: entry} dict, to L, which only grows.
        Returns True if it grew.

        v is reduced mod N as a dict of Python ints: a step on row j
        changes v only on that row's support, so the next column to
        reduce is the least key left, and v is never scanned.  A new
        pivot g at column j also reduces the rows above it whose entry
        there is at least g, found through the column index above[j], on
        the new row's support alone.

        A new row r with pivot g leaves (N/g).r in the span of the rows
        below it, since the v reduced on carries that multiple.  So the
        echelon is a Howell form (J. A. Howell, Linear Multilinear
        Algebra 19, 1986): piv[j] generates the ideal of j-th entries of
        the vectors of L that vanish left of j, the pivots depend on L
        alone, and a vector already in L reduces to 0 without changing
        the echelon."""
        N, rows, piv, above = self.N, self.rows, self.piv, self.above
        grew = False
        w = {k: x % N for k, x in v.items() if x % N}
        while w:
            j = min(w)
            a = w.pop(j)
            if not a:
                continue
            p, h = piv[j], rows[j]  # row j vanishes left of j, as w does
            if a % p == 0:
                q = a // p
                for k, hk in h.items():
                    w[k] = (w.get(k, 0) - q * hk) % N
                continue
            # the new row and the rest of w over the union of supports;
            # column j of w becomes 0
            g, x, y = _xgcd(p, a)
            cols = w.keys() | h.keys()
            r = {k: t for k in cols
                 if (t := (x * h.get(k, 0) + y * w.get(k, 0)) % N)}
            w = {k: (p // g * w.get(k, 0) - a // g * h.get(k, 0)) % N
                 for k in cols}
            for k in h:
                above[k].discard(j)
            for k in r:
                above[k].add(j)
            rows[j], piv[j] = r, g
            grew = True
            # reducing the rows above the new pivot keeps the echelon the
            # dense oracle builds.  In-process it pays on (Z/2)^6 (0.87-1.1
            # s with it, 1.2-1.6 s without) and costs on A5 (0.53-0.66
            # against 0.42-0.51 s) and (Z/4)^3 (0.73-0.93 against
            # 0.57-0.69 s)
            self._reduce_above(j)
            # a set keeps its table as it empties: A5 peaks 15 MiB higher
            # with the emptied sets of the columns above new pivots kept
            above[j] = set(above[j])
        return grew

    def _reduce_above(self, j):
        """Reduce the entries in column j of the rows above row j into
        [0, piv[j]) by subtracting multiples of row j, keeping the column
        index."""
        N, rows, above, g = self.N, self.rows, self.above, self.piv[j]
        new = [(j, g), *rows[j].items()]
        for i in [i for i in above[j] if rows[i][j] >= g]:
            row = rows[i]
            q = row[j] // g
            for k, t in new:
                t = (row.get(k, 0) - q * t) % N
                if t:
                    row[k] = t
                    above[k].add(i)
                elif row.pop(k, None) is not None:
                    above[k].discard(i)

    def reduce(self):
        """Bring the echelon to the reduced Howell form, every entry above
        a pivot in [0, pivot), which is unique for L.  Its rows, an empty
        row j read as N.e_j, are then the Hermite normal form of L."""
        for j in range(len(self.piv)):
            self._reduce_above(j)

    def basis(self):
        """Row j as a list of n entries, with its pivot piv[j] (N for an
        empty row)."""
        n = len(self.piv)
        out = []
        for j, (row, p) in enumerate(zip(self.rows, self.piv)):
            dense = [0] * n
            dense[j] = p
            for k, x in row.items():
                dense[k] = x
            out.append(dense)
        return out

    def quotient(self):
        """Z^n / L with its transform rows mod their moduli.

        A unit-pivot row says e_j = -(row j right of j) . e, so
        substituting those right to left writes every e_j over the
        non-unit pivot columns S, up to the lattice L_S of relations
        among those; the non-unit rows, plus N.I, span L_S.  The
        relations are put into the reduced Howell form of L_S, which is
        unique for its lattice, and diagonalized mod N.  A transform row maps L_S into d.Z for
        its modulus d, so reducing it mod d removes the choice of
        substitution.  The presentation thus depends on L alone, not on
        the order in which the echelon absorbed it.  Every vector here
        is a sparse dict."""
        N, K, piv, rows = self.N, len(self.piv), self.piv, self.rows
        S = [j for j in range(K) if piv[j] != 1]
        P = [None] * K  # e_j over the columns S, as {index into S: entry}
        for s, j in enumerate(S):
            P[j] = {s: 1}
        for j in reversed(range(K)):
            if piv[j] == 1:
                acc = {}
                for k, h in rows[j].items():
                    for s, x in P[k].items():
                        acc[s] = acc.get(s, 0) - h * x
                P[j] = {s: t % N for s, t in acc.items() if t % N}
        R = IntegerLattice(len(S), N)
        for j in S:  # row j over S; an empty row's pivot N is 0 mod N
            v = {s: piv[j] * x for s, x in P[j].items()}
            for k, h in rows[j].items():
                for s, x in P[k].items():
                    v[s] = v.get(s, 0) + h * x
            R.add(v)
        R.reduce()
        rels = [row for row, p in zip(R.basis(), R.piv) if p < N]
        moduli, U = snf_with_inverse([[rel[s] for rel in rels]
                                      for s in range(len(S))], N)
        transform = tuple(
            tuple(sum(row[s] % d * x for s, x in Pk.items()) % d
                  for Pk in P)
            for d, row in zip(moduli, U))
        return PresentedAbelianGroup(K, moduli, transform)
