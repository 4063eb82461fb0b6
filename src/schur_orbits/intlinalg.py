"""Integer matrix algebra in Python ints: Smith forms, cokernels and
lattices mod N.

Two engines, neither of which imports anything outside the standard
library but records.  The Smith form (_snf_engine) diagonalizes an
exact matrix; `cokernel` reads it with its row transform U, and
`snf_with_inverse` gives it with V^{-1} reduced modulo N, as sparse
rows, {column: entry} dicts holding the nonzero entries, each in
[1, N).  IntegerLattice keeps a lattice in Z^n that contains N.Z^n as a
Howell form mod N (J. A. Howell, Linear Multilinear Algebra 19, 1986),
the modular Hermite form of Domich, Kannan and Trotter (Math. Oper.
Res. 12, 1987), so every entry stays below N.  A finite abelian group
killed by N is determined mod N, and H2 and the branch-type lattice of
`homology` are computed on it.
"""

from __future__ import annotations

from itertools import product

from .records import Frozen, Record

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


class _SNF(Record):
    """U and Vinv may be None; Vinv is sparse {column: entry} rows
    reduced mod N."""

    _fields = ("U", "Vinv", "diag", "rank")

    def __init__(self, U, Vinv, diag, rank):
        self.U, self.Vinv = U, Vinv
        self.diag, self.rank = diag, rank


def _snf_engine(M, want_u=False, modulus=None):
    """Diagonalize M by unimodular row/column operations, D = U*M*V.

    Returns an _SNF record with the diagonal of D, whose entries d_i
    satisfy d_i | d_{i+1} and d_i >= 0, and its rank.  Pivots are chosen
    as the nonzero entry of minimal absolute value (ties: lowest row,
    then column), which keeps intermediate entry growth tame and makes
    the output deterministic.

    U is tracked only when asked for and is None otherwise; V is never
    formed.  Given a modulus N >= 1, V^{-1} is kept reduced mod N as
    sparse rows, {column: entry} dicts without zero entries, and updated
    by the inverse column operations on those rows alone.  Reduction mod
    N commutes with row operations and the pivots depend on M alone, so
    these rows are the exact V^{-1} reduced mod N.  On a bar-complex d2
    the rows from the rank on, its kernel coordinates, keep a single
    entry each on every group measured; the rows before it fill in.
    """
    A = [[int(x) for x in row] for row in M]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    U = ([[1 if i == j else 0 for j in range(r)] for i in range(r)]
         if want_u else None)
    if modulus is None:
        Vinv = None
    elif modulus < 1:
        raise ValueError(f"modulus {modulus} is not positive")
    else:
        Vinv = [{k: 1} if modulus > 1 else {} for k in range(c)]  # I mod N

    def row_add(i, j, q):  # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(c):
            Ai[k] += q * Aj[k]
        if U is not None:
            Ui, Uj = U[i], U[j]
            for k in range(r):
                Ui[k] += q * Uj[k]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def row_neg(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    def col_adds(ops, i):  # col_j += q * col_i for each (j, q) in ops
        for row in A:
            x = row[i]
            if x:
                for j, q in ops:
                    row[j] += q * x
        if Vinv is None:
            return
        # inverse ops, which commute: Vinv row_i -= q * Vinv row_j
        Vi = Vinv[i]
        for j, q in ops:
            for k, x in Vinv[j].items():
                y = (Vi.get(k, 0) - q * x) % modulus
                if y:
                    Vi[k] = y
                else:
                    Vi.pop(k, None)

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]
    def find_pivot(t):
        best = None
        for i in range(t, r):
            Ai = A[i]
            for j in range(t, c):
                a = Ai[j]
                if a:
                    a = -a if a < 0 else a
                    if a == 1:
                        return (i, j)
                    if best is None or a < best[0]:
                        best = (a, i, j)
        return None if best is None else (best[1], best[2])

    t = 0
    lim = min(r, c)
    while t < lim:
        piv = find_pivot(t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            if A[t][t] < 0:
                row_neg(t)
            d = A[t][t]
            dirty = False
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // d
                    row_add(i, t, -q)
                    if A[i][t]:  # remainder becomes the smaller pivot
                        row_swap(i, t)
                        dirty = True
                        d = abs(A[t][t]) or 1
                        if A[t][t] < 0:
                            row_neg(t)
                        d = A[t][t]
            # the operations clearing row t change only columns j > t and
            # commute, so they are made together, before any swap moves
            # column t
            ops = []
            for j in range(t + 1, c):
                if A[t][j]:
                    ops.append((j, -(A[t][j] // d)))
                    if A[t][j] % d:
                        col_adds(ops, t)
                        ops = []
                        col_swap(j, t)
                        dirty = True
                        if A[t][t] < 0:
                            row_neg(t)
                        d = A[t][t]
            col_adds(ops, t)
            if dirty:
                continue
            if d == 1:  # divides the remaining submatrix: nothing to scan
                break
            # pivot must divide the remaining submatrix
            offender = None
            for i in range(t + 1, r):
                Ai = A[i]
                for j in range(t + 1, c):
                    if Ai[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    diag = [A[i][i] for i in range(lim)]
    rank = sum(1 for d in diag if d)
    return _SNF(U=U, Vinv=Vinv, diag=diag, rank=rank)


def snf_with_inverse(M, modulus):
    """The Smith form of M with V^{-1} reduced mod N = modulus >= 1, as
    sparse rows (see _snf_engine), in an _SNF record whose U is None."""
    return _snf_engine(M, modulus=modulus)


class PresentedAbelianGroup(Frozen):
    """Finitely generated abelian group Z^ambient / (relations) in
    invariant-factor coordinates.

    ``moduli`` holds one modulus per retained coordinate slot: d >= 2 for a
    torsion slot (d_i | d_{i+1}), 0 for a free slot.  ``transform`` maps an
    ambient integer vector to raw slot values; reduction mod the moduli
    happens in to_coords.  ``transform`` has one row per slot, each of
    length ambient_dim.
    """

    _fields = ("ambient_dim", "moduli", "transform")

    def __init__(self, ambient_dim, moduli, transform):
        vars(self).update(ambient_dim=ambient_dim, moduli=moduli,
                          transform=transform)

    @property
    def invariant_factors(self):
        return tuple(d for d in self.moduli if d >= 2)

    @property
    def rank(self):
        return sum(1 for d in self.moduli if d == 0)

    @property
    def num_slots(self):
        return len(self.moduli)

    def order(self):
        if self.rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def zero(self):
        return (0,) * len(self.moduli)

    def to_coords(self, vec):
        vec = list(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError(
                f"expected ambient vector of length {self.ambient_dim}, got {len(vec)}"
            )
        out = []
        for d, row in zip(self.moduli, self.transform):
            x = sum(a * b for a, b in zip(row, vec))
            out.append(x % d if d else x)
        return tuple(out)

    def reduce(self, coords):
        return tuple(x % d if d else x for x, d in zip(coords, self.moduli))

    def add(self, a, b):
        return self.reduce(x + y for x, y in zip(a, b))

    def neg(self, a):
        return self.reduce(-x for x in a)

    def sub(self, a, b):
        return self.reduce(x - y for x, y in zip(a, b))

    def elements(self):
        if self.rank:
            raise ValueError("infinite group has no element enumeration")
        return (tuple(t) for t in product(*[range(d) for d in self.moduli]))


def cokernel(M, ambient_dim=None):
    """Z^rows / column-span(M) as a PresentedAbelianGroup.

    M may have zero columns; pass ambient_dim for a matrix with no rows
    represented as [].
    """
    r = len(M)
    if r == 0:
        r = ambient_dim or 0
        M = [[] for _ in range(r)]
    c = len(M[0]) if M and M[0] is not None else 0
    res = _snf_engine(M, want_u=True) if c else None
    moduli = []
    rows = []
    for i in range(r):
        d = res.diag[i] if res and i < len(res.diag) else 0
        if d == 1:
            continue
        moduli.append(d)
        urow = res.U[i] if res else [1 if k == i else 0 for k in range(r)]
        rows.append(tuple(urow))
    # order slots: torsion (ascending, as SNF already gives) then free
    torsion = [(d, row) for d, row in zip(moduli, rows) if d]
    free = [(d, row) for d, row in zip(moduli, rows) if d == 0]
    ordered = torsion + free
    return PresentedAbelianGroup(
        ambient_dim=r,
        moduli=tuple(d for d, _ in ordered),
        transform=tuple(row for _, row in ordered),
    )


def subgroup_quotient(A, gens):
    """Quotient of A by the subgroup generated by coordinate vectors.

    Returns (Q, projection) where projection maps A-coordinates to
    Q-coordinates.
    """
    n = A.num_slots
    cols = []
    for i, d in enumerate(A.moduli):
        if d:
            cols.append([d if k == i else 0 for k in range(n)])
    for g in gens:
        g = list(g)
        if len(g) != n:
            raise ValueError(f"coordinate vector of length {len(g)}, expected {n}")
        cols.append(g)
    M = [[col[i] for col in cols] for i in range(n)]
    Q = cokernel(M, ambient_dim=n)
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
        unique for its lattice.  A transform row maps L_S into d.Z for
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
        rels += [[N if s == t else 0 for t in range(len(S))]
                 for s in range(len(S))]
        pres = cokernel([list(col) for col in zip(*rels)],
                        ambient_dim=len(S))
        transform = tuple(
            tuple(sum(row[s] % d * x for s, x in Pk.items()) % d
                  for Pk in P)
            for d, row in zip(pres.moduli, pres.transform))
        return PresentedAbelianGroup(K, pres.moduli, transform)
