"""Integer linear algebra: the exact Smith form of the oracle, the
Smith form mod N, lattices mod N, and the cokernels they present."""

import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_orbits import intlinalg
from schur_orbits.intlinalg import IntegerLattice, cokernel, subgroup_quotient

from intlinalg_oracle import (
    identity_matrix,
    in_row_span,
    kernel_lattice,
    mat_mul,
    smith_normal_form,
    snf_with_inverse,
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


# The Smith form mod N against the exact diagonal d_i of the oracle, 0
# past the rank: the moduli are the gcd(d_i, N) above 1.  Entries are
# small: with entries in [-9, 9] the oracle's exact coefficients can grow
# for tens of seconds on a 6 x 39 matrix
@settings(max_examples=40, deadline=None, database=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 150),
       modulus=st.integers(1, 256), seed=st.integers(0, 2 ** 32 - 1))
@example(rows=3, cols=150, modulus=60, seed=0)
@example(rows=2, cols=3, modulus=1, seed=0)
@example(rows=2, cols=3, modulus=256, seed=0)
@example(rows=4, cols=40, modulus=257, seed=0)
@example(rows=5, cols=1, modulus=12, seed=0)
def test_snf_mod_n_moduli_are_the_exact_diagonal_mod_n(rows, cols, modulus,
                                                       seed):
    rng = random.Random(seed)
    M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    moduli, U = intlinalg.snf_with_inverse(M, modulus)
    diag = snf_with_inverse(M).diag
    diag += [0] * (rows - len(diag))
    assert moduli == tuple(g for g in (math.gcd(d, modulus) for d in diag)
                           if g > 1)
    # every column maps to 0, and the columns of U generate the slots:
    # the image, each slot of modulus d scaled by N/d into Z/N, has order
    # prod(moduli)
    assert len(U) == len(moduli)
    for j in range(cols):
        assert all(sum(u * row[j] for u, row in zip(Ut, M)) % d == 0
                   for d, Ut in zip(moduli, U))
    image = IntegerLattice(len(moduli), modulus)
    for i in range(rows):
        image.add({t: Ut[i] % d * (modulus // d)
                   for t, (d, Ut) in enumerate(zip(moduli, U))})
    assert modulus ** len(moduli) == math.prod(image.piv) * math.prod(moduli)


@pytest.mark.parametrize("modulus", [0, -4])
def test_snf_modulus_below_one_is_rejected(modulus):
    with pytest.raises(ValueError, match="not positive"):
        intlinalg.snf_with_inverse([[1, 2], [3, 4]], modulus=modulus)


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
    A = cokernel([{0: 2, 1: 6}, {0: 4, 1: 8}], 2, 8)
    assert A.invariant_factors == (2, 4)
    assert A.order() == 8


def test_presented_group_arithmetic():
    A = cokernel([{0: 2}, {1: 3}], 2, 6)
    assert A.order() == 6
    elems = list(A.elements())
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
    A = cokernel([dict(enumerate(col)) for col in zip(*M)], 3,
                 rng.choice([2, 6, 12, 60]))
    u = [rng.randint(-9, 9) for _ in range(3)]
    v = [rng.randint(-9, 9) for _ in range(3)]
    w = [a + b for a, b in zip(u, v)]
    assert A.to_coords(w) == A.add(A.to_coords(u), A.to_coords(v))


def test_subgroup_quotient():
    # (Z/4 x Z/4) / <(2, 2)> has order 8
    A = cokernel([{0: 4}, {1: 4}], 2, 4)
    Q, _ = subgroup_quotient(A, [A.to_coords([2, 2])])
    assert Q.order() == 8
    # quotient by a generator of one factor
    Q2, _ = subgroup_quotient(A, [A.to_coords([1, 0])])
    assert Q2.invariant_factors == (4,)


def _brute_span(cols, n, N):
    """The subgroup of (Z/N)^n that the columns generate, as a set."""
    gens = {tuple(col.get(i, 0) % N for i in range(n)) for col in cols}
    span = {(0,) * n}
    frontier = list(span)
    while frontier:
        frontier = [w for w in {tuple((a + b) % N for a, b in zip(v, g))
                                for v in frontier for g in gens}
                    if w not in span]
        span.update(frontier)
    return span


def _check_presentation(Q, cols, n, N):
    """Every modulus at least 2 divides the next and N, and the columns
    and N.e_i map to 0."""
    assert all(d >= 2 and N % d == 0 for d in Q.moduli)
    assert all(b % a == 0 for a, b in zip(Q.moduli, Q.moduli[1:]))
    for col in cols + [{i: N} for i in range(n)]:
        assert Q.to_coords([col.get(i, 0) for i in range(n)]) == Q.zero()


# Z^n / (columns + N.Z^n) against brute force on (Z/N)^n: the order, the
# k-torsion |Q[k]| for each k dividing N (which fixes the isomorphism
# type), and the kernel of the coordinate map
@settings(max_examples=400, deadline=None, database=None)
@given(n=st.integers(1, 3), N=st.integers(1, 12),
       cols=st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3),
                     max_size=4))
def test_cokernel_matches_brute_force(n, N, cols):
    cols = [dict(enumerate(col[:n])) for col in cols]
    Q = cokernel(cols, n, N)
    _check_presentation(Q, cols, n, N)
    span = _brute_span(cols, n, N)
    space = list(product(range(N), repeat=n))
    assert Q.order() * len(span) == N ** n
    for k in range(1, N + 1):
        if N % k == 0:
            torsion = sum(tuple(k * x % N for x in v) in span for v in space)
            assert torsion == len(span) * math.prod(
                math.gcd(k, d) for d in Q.moduli)
    for v in space:
        assert (Q.to_coords(v) == Q.zero()) == (v in span)


@settings(max_examples=3000, deadline=None, database=None)
@given(n=st.integers(1, 7), N=st.integers(1, 5040),
       count=st.integers(0, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_cokernel_of_random_lattices(n, N, count, seed):
    # the order is the lattice's index, the product of its Howell pivots
    rng = random.Random(seed)
    cols = [{i: rng.randrange(N) * rng.choice([1, 2, 3, 6, 10])
             for i in range(n) if rng.random() < 0.7} for _ in range(count)]
    L = IntegerLattice(n, N)
    for col in cols:
        L.add(col)
    Q = cokernel(cols, n, N)
    _check_presentation(Q, cols, n, N)
    assert Q.order() == math.prod(L.piv)


def _in_child(code, timeout=60):
    """Run code in a fresh interpreter and return what it prints, read as
    JSON, so that a hang fails the test after timeout seconds instead of
    stopping the suite."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         check=True, timeout=timeout, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(out.stdout)


# IntegerLattice.quotient once handed these rows, with N.I, to the exact
# Smith form, which did not return within 60 s
HANG_ROWS = [[120, 0, 9, 1500, 119], [0, 630, 9, 660, 154],
             [0, 0, 18, 1320, 14], [0, 0, 0, 1680, 56], [0, 0, 0, 0, 168]]


def test_quotient_of_a_lattice_that_hung_the_exact_smith_form():
    moduli, seconds = _in_child(f"""
import json, time
from schur_orbits.intlinalg import IntegerLattice
L = IntegerLattice(5, 5040)
for row in {HANG_ROWS}:
    L.add(dict(enumerate(row)))
t = time.perf_counter()
Q = L.quotient()
print(json.dumps([Q.moduli, time.perf_counter() - t]))
""")
    assert moduli == [3, 5040, 5040, 5040]
    assert math.prod(moduli) == math.prod(row[j] for j, row in
                                          enumerate(HANG_ROWS))
    assert seconds < 1


# The dense random matrices on which the exact Smith form takes 6 s
# (Random(19), 6 x 12, with 720.I) to 25 s (Random(20), 6 x 39)
@pytest.mark.parametrize("seed", [19, 20])
def test_cokernel_of_dense_random_matrices(seed):
    Ns = [1, 2, 12, 64, 720, 5040]
    results = _in_child(f"""
import json, math, random, time
from schur_orbits.intlinalg import IntegerLattice, cokernel
rng = random.Random({seed})
rows, cols = rng.randint(1, 6), rng.randint(1, 150)
M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
cols = [dict(enumerate(col)) for col in zip(*M)]
out = []
for N in {Ns}:
    t = time.perf_counter()
    Q = cokernel(cols, rows, N)
    seconds = time.perf_counter() - t
    L = IntegerLattice(rows, N)
    for col in cols:
        L.add(col)
    zero = all(not any(Q.to_coords([c.get(i, 0) for i in range(rows)]))
               for c in cols)
    out.append([Q.moduli, seconds, math.prod(L.piv), zero])
print(json.dumps(out))
""")
    for N, (moduli, seconds, index, zero) in zip(Ns, results):
        assert all(d >= 2 and N % d == 0 for d in moduli)
        assert all(b % a == 0 for a, b in zip(moduli, moduli[1:]))
        assert math.prod(moduli) == index and zero
        assert seconds < 1


def _lattice(n, modulus, vecs):
    lat = IntegerLattice(n, modulus)
    for v in vecs:
        lat.add(dict(enumerate(v)))
    lat.reduce()
    return lat.basis()


def test_integer_lattice_membership():
    basis = _lattice(3, 8, [[2, 0, 0], [0, 2, 0], [1, 1, 1]])
    assert basis == [[1, 1, 1], [0, 2, 0], [0, 0, 2]]
    assert in_row_span(basis, [2, 2, 2])
    assert in_row_span(basis, [3, 1, 1])
    assert not in_row_span(basis, [1, 0, 0])
    assert not in_row_span(basis, [0, 0, 1])


@pytest.mark.parametrize("seed", range(10))
def test_integer_lattice_spans_its_input(seed):
    # the reduced basis spans the input and N.Z^n and has the index of
    # the lattice they generate, so it spans exactly that lattice; and it
    # is the Hermite normal form
    rng = random.Random(400 + seed)
    n = rng.randint(2, 5)
    N = rng.choice([1, 2, 6, 8, 9, 12, 64])
    vecs = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(rng.randint(1, 6))]
    NI = [[N if i == j else 0 for j in range(n)] for i in range(n)]
    basis = _lattice(n, N, vecs)
    for v in vecs + NI:
        assert in_row_span(basis, v)
    for u in vecs:
        for v in vecs:
            assert in_row_span(basis, [a + b for a, b in zip(u, v)])
    _, D, _ = smith_normal_form(vecs + NI)
    assert math.prod(row[j] for j, row in enumerate(basis)) == math.prod(
        D[i][i] for i in range(n))
    for j, row in enumerate(basis):
        assert row[:j] == [0] * j and row[j] > 0
        assert all(0 <= above[j] < row[j] for above in basis[:j])
