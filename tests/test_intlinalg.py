"""Exact integer linear algebra: SNF, kernels, cokernels, lattices."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_orbits.intlinalg import (
    IntegerLattice,
    cokernel,
    identity_matrix,
    kernel_lattice,
    mat_mul,
    smith_normal_form,
    snf_with_inverse,
    subgroup_quotient,
)


def minor_gcd(M, k):
    """gcd of all k x k minors (0 if none are nonzero)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    g = 0
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            g = math.gcd(g, det([[M[i][j] for j in cs] for i in rs]))
    return g


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            sub = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det(sub)
    return total


def snf_oracle_diag(M):
    """Invariant factors from determinantal divisors d_k/d_{k-1}."""
    rows, cols = len(M), len(M[0]) if M else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        dk = minor_gcd(M, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


@pytest.mark.parametrize("seed", range(40))
def test_snf_matches_determinantal_divisors(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    U, D, V = smith_normal_form(M)
    got = [D[i][i] for i in range(min(rows, cols)) if D[i][i] != 0]
    assert got == snf_oracle_diag(M)
    # U M V = D and divisibility chain
    assert mat_mul(mat_mul(U, M), V) == D
    for a, b in zip(got, got[1:]):
        assert b % a == 0
    assert all(d >= 0 for d in got)


def test_snf_frozen_examples():
    _, D, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]
    _, D, _ = smith_normal_form([[1, 1]])
    assert D[0][0] == 1
    _, D, _ = smith_normal_form([[0]])
    assert D == [[0]]


@pytest.mark.parametrize("seed", range(20))
def test_snf_with_inverse(seed):
    rng = random.Random(100 + seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    res = snf_with_inverse(M)
    assert mat_mul(res.V, res.Vinv) == identity_matrix(cols)
    assert mat_mul(res.Vinv, res.V) == identity_matrix(cols)


# one row clear of a 6 x 150 matrix adds up to 149 rows of V^{-1} into
# one.  Entries are small, as d2's lie in [-1, 2]: with entries in
# [-9, 9] the engine's exact coefficients can grow for tens of seconds on
# a 6 x 39 matrix
@settings(max_examples=40, deadline=None, database=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 150),
       modulus=st.integers(1, 256), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=3, cols=150, modulus=60, seed=0)
@example(rows=2, cols=3, modulus=1, seed=0)
@example(rows=2, cols=3, modulus=256, seed=0)
@example(rows=4, cols=40, modulus=257, seed=0)
def test_snf_vinv_mod_n_is_the_exact_vinv_reduced(rows, cols, modulus, seed):
    rng = random.Random(seed)
    M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    got, want = snf_with_inverse(M, modulus=modulus), snf_with_inverse(M)
    # sparse rows: the nonzero entries mod N, none stored as 0
    assert all(0 < x < modulus for row in got.Vinv for x in row.values())
    assert [[row.get(k, 0) for k in range(cols)] for row in got.Vinv] == [
        [x % modulus for x in row] for row in want.Vinv]
    assert (got.diag, got.rank) == (want.diag, want.rank)


@pytest.mark.parametrize("modulus", [0, -4])
def test_snf_vinv_modulus_outside_uint8_is_rejected(modulus):
    with pytest.raises(ValueError, match="not positive"):
        snf_with_inverse([[1, 2], [3, 4]], modulus=modulus)


def test_kernel_of_sum_map():
    # kernel of [1 1]: Z^2 -> Z is spanned by (1, -1)
    basis = kernel_lattice([[1, 1]])
    assert len(basis) == 1
    a, b = basis[0]
    assert a + b == 0 and abs(a) == 1


@pytest.mark.parametrize("seed", range(20))
def test_kernel_certificates(seed):
    rng = random.Random(200 + seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 5)
    M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    basis = kernel_lattice(M)
    for v in basis:
        assert all(sum(M[i][j] * v[j] for j in range(cols)) == 0
                   for i in range(rows))
    # rank-nullity over Q
    _, D, _ = smith_normal_form(M)
    rank = sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
    assert len(basis) == cols - rank


def test_cokernel_frozen_example():
    A = cokernel([[2, 4], [6, 8]])
    assert A.invariant_factors == (2, 4)
    assert A.order() == 8


def test_cokernel_free_part():
    A = cokernel([], ambient_dim=2)
    assert A.invariant_factors == ()
    assert A.rank == 2
    assert A.order() is None


def test_presented_group_arithmetic():
    A = cokernel([[2, 0], [0, 3]])
    assert A.order() == 6
    elems = A.elements()
    assert len(set(elems)) == 6
    z = A.zero()
    for x in elems:
        assert A.add(x, z) == x
        assert A.add(x, A.neg(x)) == z


@pytest.mark.parametrize("seed", range(15))
def test_to_coords_additive(seed):
    rng = random.Random(300 + seed)
    cols = rng.randint(1, 3)
    M = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(3)]
    A = cokernel(M, ambient_dim=3)
    u = [rng.randint(-9, 9) for _ in range(3)]
    v = [rng.randint(-9, 9) for _ in range(3)]
    w = [a + b for a, b in zip(u, v)]
    assert A.to_coords(w) == A.add(A.to_coords(u), A.to_coords(v))


def test_subgroup_quotient():
    # (Z/4 x Z/4) / <(2, 2)> has order 8
    A = cokernel([[4, 0], [0, 4]])
    Q, _ = subgroup_quotient(A, [A.to_coords([2, 2])])
    assert Q.order() == 8
    # quotient by a generator of one factor
    Q2, _ = subgroup_quotient(A, [A.to_coords([1, 0])])
    assert Q2.invariant_factors == (4,)


def test_integer_lattice_membership():
    lat = IntegerLattice(3)
    lat.add([2, 0, 0])
    lat.add([0, 2, 0])
    lat.add([1, 1, 1])
    assert lat.rank == 3
    assert lat.contains([2, 2, 2])
    assert lat.contains([3, 1, 1])
    assert not lat.contains([1, 0, 0])
    assert not lat.contains([0, 0, 1])


@pytest.mark.parametrize("seed", range(10))
def test_integer_lattice_spans_its_input(seed):
    rng = random.Random(400 + seed)
    n = rng.randint(2, 5)
    vecs = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(rng.randint(1, 6))]
    lat = IntegerLattice(n)
    for v in vecs:
        lat.add(v)
    for v in vecs:
        assert lat.contains(v)
    for u in vecs:
        for v in vecs:
            assert lat.contains([a + b for a, b in zip(u, v)])
