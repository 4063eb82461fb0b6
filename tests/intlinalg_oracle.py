"""The exact Smith form and the exact cokernel, kept as the oracle for
`intlinalg`.

`src/` has no exact elimination: `intlinalg.snf_with_inverse` is the
Smith form mod N that presents every finite abelian group, H2 by
Hopf's formula mod |G|^2 included.  This engine works over Z in Python
ints and always tracks U, V and the exact V^{-1}, so U*M*V = D and
V*V^{-1} = I can be checked, and its diagonal reduced mod N checks the
moduli of the form mod N.  `tests/h2_oracle.py` reads the bar complex's
kernel coordinates from the exact V^{-1} of d2 and presents its
relations by `cokernel`, whose transform is the exact U.  Nothing here
is computed by `intlinalg`: only its value class PresentedAbelianGroup
holds the cokernels.
"""

from schur_orbits.intlinalg import PresentedAbelianGroup
from schur_orbits.records import Record


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    ra, ca = len(A), len(A[0]) if A else 0
    rb, cb = len(B), len(B[0]) if B else 0
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    Bt = list(zip(*B)) if B else []
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


class _SNF(Record):
    _fields = ("U", "D", "V", "Vinv", "diag", "rank")

    def __init__(self, U, D, V, Vinv, diag, rank):
        self.U, self.D, self.V, self.Vinv = U, D, V, Vinv
        self.diag, self.rank = diag, rank


def snf_with_inverse(M):
    """U, D, V and V^{-1} with U*M*V = D, D diagonal with d_i | d_{i+1}
    and d_i >= 0, as an _SNF record.  Pivots are the nonzero entry of
    minimal absolute value (ties: lowest row, then column), which keeps
    intermediate entry growth tame and makes the output deterministic."""
    A = [[int(x) for x in row] for row in M]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise ValueError("ragged matrix")
    U, V, Vinv = identity_matrix(r), identity_matrix(c), identity_matrix(c)

    def row_add(i, j, q):  # row_i += q * row_j
        for X in (A, U):
            X[i] = [a + q * b for a, b in zip(X[i], X[j])]

    def row_swap(i, j):
        for X in (A, U):
            X[i], X[j] = X[j], X[i]

    def row_neg(i):
        for X in (A, U):
            X[i] = [-x for x in X[i]]

    def col_add(j, i, q):  # col_j += q * col_i, Vinv row_i -= q * row_j
        for row in A + V:
            row[j] += q * row[i]
        Vinv[i] = [a - q * b for a, b in zip(Vinv[i], Vinv[j])]

    def col_swap(i, j):
        for row in A + V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def find_pivot(t):
        nonzero = [(abs(A[i][j]), i, j) for i in range(t, r)
                   for j in range(t, c) if A[i][j]]
        return min(nonzero)[1:] if nonzero else None

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
                    row_add(i, t, -(A[i][t] // d))
                    if A[i][t]:  # remainder becomes the smaller pivot
                        row_swap(i, t)
                        dirty = True
                        if A[t][t] < 0:
                            row_neg(t)
                        d = A[t][t]
            for j in range(t + 1, c):
                if A[t][j]:
                    col_add(j, t, -(A[t][j] // d))
                    if A[t][j]:
                        col_swap(j, t)
                        dirty = True
                        if A[t][t] < 0:
                            row_neg(t)
                        d = A[t][t]
            if dirty:
                continue
            offender = next((i for i in range(t + 1, r)
                             if any(A[i][j] % d for j in range(t + 1, c))),
                            None)
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1
    diag = [A[i][i] for i in range(lim)]
    return _SNF(U=U, D=A, V=V, Vinv=Vinv, diag=diag,
                rank=sum(1 for d in diag if d))


def smith_normal_form(M):
    """Return (U, D, V) with U*M*V = D in Smith normal form."""
    res = snf_with_inverse(M)
    return res.U, res.D, res.V


def cokernel(M, ambient_dim):
    """Z^ambient_dim / column-span(M), which must be finite, as a
    PresentedAbelianGroup: the Smith form's diagonal entries d >= 2 are
    the moduli and the matching rows of U, unreduced, the transform.
    Pass ambient_dim for a matrix with no columns."""
    if len(M) != ambient_dim:
        raise ValueError(f"{len(M)} rows, expected {ambient_dim}")
    res = snf_with_inverse(M) if M and M[0] else None
    diag = res.diag if res else []
    if len(diag) < ambient_dim or 0 in diag:
        raise ValueError("the cokernel is infinite")
    keep = [i for i, d in enumerate(diag) if d != 1]
    return PresentedAbelianGroup(ambient_dim, tuple(diag[i] for i in keep),
                                 tuple(tuple(res.U[i]) for i in keep))


def kernel_lattice(M):
    """Basis of the integer kernel {v : M v = 0}: the columns of V over
    the zero diagonal entries of the Smith form."""
    c = len(M[0]) if M else 0
    res = snf_with_inverse(M)
    return [[res.V[i][j] for i in range(c)] for j in range(res.rank, c)]


def in_row_span(basis, vec):
    """Whether vec is an integer combination of the rows of basis, a
    square matrix whose row j vanishes left of column j and has a
    positive entry there; decided by back-substitution."""
    v = list(vec)
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
