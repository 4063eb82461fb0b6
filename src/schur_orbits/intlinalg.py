"""Exact integer matrix algebra: Smith normal form, kernels, cokernels.

Matrices are plain lists of rows of Python ints, so all arithmetic is
arbitrary precision.  The one exception is a Smith form's V^{-1} asked
for modulo N, which is a list of sparse rows, {column: entry} dicts
holding the nonzero entries, each in [1, N).  The module imports
nothing outside the standard library.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product

from .records import Frozen, Record

__all__ = [
    "smith_normal_form",
    "snf_with_inverse",
    "kernel_lattice",
    "cokernel",
    "subgroup_quotient",
    "PresentedAbelianGroup",
    "IntegerLattice",
    "mat_mul",
    "identity_matrix",
]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    ra, ca = len(A), len(A[0]) if A else 0
    rb, cb = len(B), len(B[0]) if B else 0
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    Bt = list(zip(*B)) if B else []
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class _SNF(Record):
    """U, V and Vinv may be None; Vinv is sparse {column: entry} rows
    when reduced mod N."""

    _fields = ("U", "D", "V", "Vinv", "diag", "rank")

    def __init__(self, U, D, V, Vinv, diag, rank):
        self.U, self.D, self.V, self.Vinv = U, D, V, Vinv
        self.diag, self.rank = diag, rank


def _snf_engine(M, want_u=False, want_v=False, want_vinv=False, modulus=None):
    """Diagonalize M by unimodular row/column operations.

    Returns U, D, V with U*M*V = D, D diagonal with d_i | d_{i+1} and
    d_i >= 0.  Pivots are chosen as the nonzero entry of minimal absolute
    value (ties: lowest row, then column), which keeps intermediate entry
    growth tame and makes the output deterministic.

    U, V and V^{-1} are tracked only when asked for and are None
    otherwise.  Given a modulus N >= 1, V^{-1} is kept reduced mod N as
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
    U = identity_matrix(r) if want_u else None
    V = identity_matrix(c) if want_v else None
    if not want_vinv:
        Vinv = None
    elif modulus is None:
        Vinv = identity_matrix(c)
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
        for row in A + (V or []):
            x = row[i]
            if x:
                for j, q in ops:
                    row[j] += q * x
        if Vinv is None or not ops:
            return
        # inverse ops, which commute: Vinv row_i -= q * Vinv row_j
        Vi = Vinv[i]
        if modulus is None:
            for j, q in ops:
                Vj = Vinv[j]
                for k in range(c):
                    Vi[k] -= q * Vj[k]
            return
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
        if V is not None:
            for row in V:
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
    return _SNF(U=U, D=A, V=V, Vinv=Vinv, diag=diag, rank=rank)


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D in Smith normal form."""
    res = _snf_engine(M, want_u=True, want_v=True)
    return res.U, res.D, res.V


def snf_with_inverse(M, modulus=None):
    """Like smith_normal_form but also tracks V^{-1} (as an _SNF record).

    Given a modulus N >= 1, only V^{-1} is tracked, as sparse rows
    reduced mod N (see _snf_engine); U and V are None."""
    if modulus is None:
        return _snf_engine(M, want_u=True, want_v=True, want_vinv=True)
    return _snf_engine(M, want_vinv=True, modulus=modulus)


def kernel_lattice(M):
    """Basis of the integer kernel {v : M v = 0}, as a list of vectors.

    The vectors are the columns of V sitting over the zero diagonal
    entries of the Smith form, so they always form a lattice basis.
    """
    r = len(M)
    c = len(M[0]) if r else 0
    if c == 0:
        return []
    res = _snf_engine(M, want_v=True)
    basis = []
    for j in range(res.rank, c):
        basis.append([res.V[i][j] for i in range(c)])
    for v in basis:  # cheap certificate
        assert all(sum(M[i][k] * v[k] for k in range(c)) == 0 for i in range(r))
    return basis


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
    """Sublattice of Z^n maintained as a row basis in echelon form: rows
    of Python ints sorted by pivot column, each pivot positive."""

    def __init__(self, n):
        self.n = n
        self.rows = []  # echelon rows, sorted by pivot column
        self.pivots = []  # pivot column per row

    @property
    def rank(self):
        return len(self.rows)

    def _pivot_row(self, v):
        """(leading column of v or -1, index of the row with that pivot
        or None)."""
        j = next((k for k, x in enumerate(v) if x), -1)
        idx = bisect_left(self.pivots, j)
        hit = j >= 0 and idx < len(self.pivots) and self.pivots[idx] == j
        return j, (idx if hit else None)

    def _reduce_above(self, idx):
        """Reduce entries of other rows over the pivot of row idx."""
        row, j = self.rows[idx], self.pivots[idx]
        for k, other in enumerate(self.rows):
            q = other[j] // row[j]
            if k != idx and q:
                self.rows[k] = [a - q * b for a, b in zip(other, row)]

    def add(self, vec):
        """Add a vector to the lattice; returns True if the lattice grew
        or a pivot changed."""
        v = [int(x) for x in vec]
        changed = False
        while True:
            j, idx = self._pivot_row(v)
            if j < 0:
                return changed
            if idx is None:
                idx = bisect_left(self.pivots, j)
                self.rows.insert(idx, v if v[j] > 0 else [-x for x in v])
                self.pivots.insert(idx, j)
                self._reduce_above(idx)
                return True
            row = self.rows[idx]
            p, a = row[j], v[j]
            if a % p == 0:
                v = [x - (a // p) * r for x, r in zip(v, row)]
                continue
            g, x, y = _xgcd(p, a)
            new_row = [x * r + y * t for r, t in zip(row, v)]
            v = [(p // g) * t - (a // g) * r for r, t in zip(row, v)]
            if new_row[j] < 0:
                new_row = [-t for t in new_row]
            self.rows[idx] = new_row
            self._reduce_above(idx)
            changed = True

    def contains(self, vec):
        v = [int(x) for x in vec]
        while True:
            j, idx = self._pivot_row(v)
            if j < 0:
                return True
            if idx is None or v[j] % self.rows[idx][j]:
                return False
            q = v[j] // self.rows[idx][j]
            v = [x - q * r for x, r in zip(v, self.rows[idx])]

    def basis(self):
        return [list(row) for row in self.rows]
