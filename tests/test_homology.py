"""Bar-complex homology: H2, C-tori, M(G)_C, N, and unbranched classes."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_orbits.covers import (
    BranchData,
    BranchData as BD,
    enumerate_tuples,
    hom_branch_type,
)
from schur_orbits.groups import (
    abelianization,
    build_group,
    quotient_by_normal_closure,
)
from schur_orbits.homology import (
    HomologyError,
    _Echelon,
    _absorb,
    _echelon_cokernel,
    boundary_matrix,
    c_tori_subgroup,
    h1_bgc,
    h2_bgc,
    h2_group,
    m_g_c,
    n_lattice,
    pi1_bgc_order,
    sch_unbranched,
    torus_cycle,
    unbranched_cycle,
)
from schur_orbits.intlinalg import cokernel, mat_mul, snf_with_inverse

from conftest import GROUP_SPECS, get_group, transposition_class
from h2_oracle import _absorb as dense_absorb

H2_EXPECTED = {
    "z2": (), "z3": (), "z4": (), "z5": (), "z6": (),
    "s3": (), "q8": (),
    "k4": (2,), "d4": (2,), "a4": (2,), "s4": (2,),
    "z2z4": (2,),  # Kunneth: H2(Z/2 x Z/4) = Z/gcd(2,4)
    # classical multipliers (Karpilovsky, The Schur Multiplier, 1987)
    "z3z3": (3,), "z4z4": (4,), "z2^4": (2,) * 6, "d8": (2,), "q16": (),
}


@pytest.mark.parametrize("name", sorted(H2_EXPECTED))
def test_h2_invariant_factors(name):
    G = get_group(name)
    H2 = h2_group(G)
    assert H2.presentation.invariant_factors == H2_EXPECTED[name]


def _cycle(n, points):
    perm = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return perm


def test_h2_past_order_32():
    # Schur's product formula M(A x B) = M(A) + M(B) + (A_ab (x) B_ab):
    # M(A4 x Z/3) = Z/2 + 0 + (Z/3 (x) Z/3) = Z/6
    G = build_group({"permutations": [[1, 2, 0, 3, 4, 5, 6],
                                      [0, 2, 3, 1, 4, 5, 6],
                                      _cycle(7, [4, 5, 6])]})
    assert G.order == 36
    assert h2_group(G).invariant_factors == (6,)
    # Z/5 x Z/13 has order 65, one over the bar-complex cap
    G = build_group({"permutations": [_cycle(18, [0, 1, 2, 3, 4]),
                                      _cycle(18, list(range(5, 18)))]})
    with pytest.raises(HomologyError, match="over bar-complex cap"):
        h2_group(G)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3", "k4"])
def test_d2_d3_composite_zero(name):
    G = get_group(name)
    d2 = boundary_matrix(G, 2)
    d3 = boundary_matrix(G, 3)
    prod = mat_mul(d2, d3)
    assert all(all(x == 0 for x in row) for row in prod)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z5", "z6", "s3", "k4",
                                  "z3z3"])
def test_h2_dual_route(name):
    # independent dense route: SNF kernel basis of d2, express d3 in it,
    # take the plain cokernel
    G = get_group(name)
    d2 = boundary_matrix(G, 2)
    d3 = boundary_matrix(G, 3)
    res = snf_with_inverse(d2)
    r = res.rank
    cols = len(d2[0]) if d2 else 0
    coords = []
    n3 = len(d3[0]) if d3 and d3[0] else 0
    for j in range(n3):
        col = [d3[i][j] for i in range(len(d3))]
        y = [sum(res.Vinv[i][k] * col[k] for k in range(cols))
             for i in range(cols)]
        assert all(y[i] == 0 for i in range(r))
        coords.append(y[r:])
    kdim = cols - r
    M = [[coords[j][i] for j in range(n3)] for i in range(kdim)]
    A = cokernel(M, ambient_dim=kdim)
    assert A.invariant_factors == H2_EXPECTED[name]
    assert A.rank == 0


def _presented(cols, K, N):
    """Z^K / (cols + N.Z^K) through the echelon, absorbing cols in order."""
    E = _Echelon(K, N)
    for col in cols:
        _absorb(E, dict(enumerate(col)))
    return _echelon_cokernel(E)


@pytest.mark.parametrize("seed", range(30))
def test_mod_n_echelon_matches_exact_cokernel(seed):
    # Z^K / (columns of A + N.Z^K), once from A mod N through the echelon
    # and once exactly; few columns leave some pivots empty
    rng = random.Random(500 + seed)
    N = rng.choice([2, 4, 6, 8, 9, 12])
    K = rng.randint(1, 5)
    cols = [[rng.randint(-20, 20) for _ in range(K)]
            for _ in range(rng.randint(0, K + 1))]
    got = _presented(cols, K, N)
    full = cols + [[N if i == k else 0 for i in range(K)] for k in range(K)]
    want = cokernel([list(row) for row in zip(*full)], ambient_dim=K)
    assert got.invariant_factors == want.invariant_factors
    vecs = [[rng.randint(-9, 9) for _ in range(K)] for _ in range(12)]
    for u, v in itertools.combinations(vecs, 2):
        assert ((got.to_coords(u) == got.to_coords(v))
                == (want.to_coords(u) == want.to_coords(v)))
    # the presentation depends on the lattice, not on the absorption order
    for _ in range(3):
        rng.shuffle(cols)
        assert _presented(cols, K, N) == got


# The sparse echelon against the dense int64 one of the oracle, which
# works on whole rows.  Scaling a vector by a divisor of N makes non-unit
# pivots; the sparse side gets the entries unreduced, some negative.
@settings(max_examples=40, deadline=None, database=None)
@given(N=st.integers(2, 64), K=st.integers(1, 40), count=st.integers(0, 60),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sparse_absorb_matches_dense_int64(N, K, count, seed):
    rng = np.random.default_rng(seed)
    divisors = [d for d in range(1, N) if N % d == 0]
    dense, pd = np.zeros((K, K), dtype=np.int64), [N] * K
    E = _Echelon(K, N)
    for _ in range(count):
        v = rng.integers(0, N, size=K) * rng.choice(divisors) % N
        v[:rng.integers(0, K)] = 0  # start past some pivots
        grew = dense_absorb(dense, pd, v, N)
        shifted = v + N * rng.integers(-2, 3, size=K)
        assert _absorb(E, dict(enumerate(shifted.tolist()))) == grew
    assert E.dense() == dense.tolist() and E.piv == pd
    assert all(0 < x < N for row in E.rows for x in row.values())
    assert E.above == [{i for i, row in enumerate(E.rows) if k in row}
                       for k in range(K)]


def test_echelon_cokernel_reduces_entries_left_unreduced_by_absorb():
    # absorbed in this order, _absorb leaves the entries 7 and 4 above the
    # last pivot 4 (in the other order, 3 and 0); every pivot is a
    # non-unit, so only the full reduction in _echelon_cokernel makes both
    # orders present the same basis
    cols = [[2, 2, 3], [4, 2, 2]]
    assert _presented(cols, 3, 8) == _presented(cols[::-1], 3, 8)


@pytest.mark.parametrize("name", ["z4", "z6", "s3", "k4", "q8", "d4", "a4"])
def test_torus_cycles_are_cycles(name):
    G = get_group(name)
    H2 = h2_group(G)
    for a in range(G.order):
        for b in range(G.order):
            if G.mul[a][b] != G.mul[b][a]:
                continue
            cyc = torus_cycle(G, a, b)
            H2.cycle_class(cyc)  # raises if not a d2-cycle
    with_pair = [(a, b) for a in range(G.order) for b in range(G.order)
                 if G.mul[a][b] != G.mul[b][a]]
    if with_pair:
        with pytest.raises(HomologyError):
            torus_cycle(G, *with_pair[0])


def test_cycle_class_rejects_non_cycles(k4):
    H2 = h2_group(k4)
    a, b = 1, 2
    with pytest.raises(HomologyError, match="not a d2-cycle"):
        H2.cycle_class({(a, b): 1})
    # [a|b] - [b|a] is a cycle of the commuting pair, [a|b] + [b|a] is not
    with pytest.raises(HomologyError, match="not a d2-cycle"):
        H2.cycle_class({(a, b): 1, (b, a): 1})
    assert H2.cycle_class({(a, b): 1, (b, a): -1}) in ((0,), (1,))


@pytest.mark.parametrize("name", sorted(H2_EXPECTED))
def test_mgc_empty_c_is_h2(name):
    G = get_group(name)
    M, proj = m_g_c(G, ())
    assert M.invariant_factors == h2_group(G).presentation.invariant_factors


def test_mgc_k4_one_class_trivial(k4):
    cid = next(c for c, r in enumerate(k4.class_reps) if r != 0)
    M, _ = m_g_c(k4, (cid,))
    assert M.invariant_factors == ()
    assert M.order() == 1


def test_mgc_s3_transpositions_trivial(s3):
    M, _ = m_g_c(s3, (transposition_class(s3),))
    assert M.order() == 1


def test_c_tori_span_h2_for_k4(k4):
    all_classes = tuple(c for c, r in enumerate(k4.class_reps) if r != 0)
    M, _ = m_g_c(k4, all_classes)
    assert M.order() == 1
    # the empty sweep spans nothing
    gens = c_tori_subgroup(k4, ())
    H2 = h2_group(k4)
    for gvec in gens:
        assert gvec == H2.presentation.zero()


def test_n_lattice_s3_transpositions(s3):
    tc = transposition_class(s3)
    basis = n_lattice(s3, (tc,))
    # net transposition count must be even: N = 2Z
    assert len(basis) == 1
    assert abs(basis[0][0]) == 2


def test_n_lattice_k4_full_rank(k4):
    cids = tuple(c for c, r in enumerate(k4.class_reps) if r != 0)
    basis = n_lattice(k4, cids)
    assert len(basis) == 3


@pytest.mark.parametrize("name,classes_kind", [
    ("s3", "transpositions"), ("k4", "all"), ("a4", "all"),
])
def test_n_lattice_brute_force(name, classes_kind):
    G = get_group(name)
    if classes_kind == "transpositions":
        cids = (transposition_class(G),)
    else:
        cids = tuple(c for c, r in enumerate(G.class_reps) if r != 0)
    A, proj = abelianization(G)
    basis = n_lattice(G, cids)
    from schur_orbits.intlinalg import IntegerLattice

    lat = IntegerLattice(len(cids))
    for row in basis:
        lat.add(row)
    for vec in itertools.product(range(-2, 3), repeat=len(cids)):
        img = A.zero()
        for k, cid in enumerate(cids):
            x = proj(G.class_reps[cid])
            for _ in range(abs(vec[k])):
                img = A.add(img, x if vec[k] > 0 else A.neg(x))
        assert lat.contains(list(vec)) == (img == A.zero())


def test_hom_branch_type_parity(s3):
    tc = transposition_class(s3)
    vec, ok = hom_branch_type(s3, (tc,), BD.from_dict({(tc, 1): 4}))
    assert vec == [4] and ok
    vec, ok = hom_branch_type(s3, (tc,), BD.from_dict({(tc, 1): 3}))
    assert vec == [3] and not ok
    # a negative puncture cancels
    vec, ok = hom_branch_type(s3, (tc,), BD.from_dict({(tc, 1): 3, (tc, -1): 1}))
    assert vec == [2] and ok


def test_h1_pi1_bgc(s3, k4):
    tc = transposition_class(s3)
    # transpositions normally generate S3: BG_C simply connected
    assert pi1_bgc_order(s3, (tc,)) == 1
    assert h1_bgc(s3, (tc,)).invariant_factors == ()
    # killing one K4 class leaves Z/2
    cid = next(c for c, r in enumerate(k4.class_reps) if r != 0)
    assert pi1_bgc_order(k4, (cid,)) == 2
    assert h1_bgc(k4, (cid,)).invariant_factors == (2,)
    # killing nothing: pi1 = G
    assert pi1_bgc_order(s3, ()) == 6


def _class_subsets(G):
    """Every class subset of a group with at most 8 classes; otherwise
    those of at most two classes, and all the classes."""
    cids = range(len(G.class_reps))
    sizes = range(len(cids) + 1) if len(cids) <= 8 else range(3)
    subsets = [c for k in sizes for c in itertools.combinations(cids, k)]
    return subsets + [tuple(cids)] * (len(cids) > 8)


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_h1_pi1_bgc_match_the_quotient_group(name):
    # the reference builds G/<<C>> as a group of its own
    G = get_group(name)
    for cids in _class_subsets(G):
        elems = [x for x in range(G.order) if G.class_of[x] in cids]
        Q, _ = quotient_by_normal_closure(G, elems)
        assert pi1_bgc_order(G, cids) == Q.order
        want, _ = abelianization(Q)
        assert h1_bgc(G, cids).invariant_factors == want.invariant_factors


def test_h2_bgc_shape(s3, k4):
    tc = transposition_class(s3)
    B = h2_bgc(s3, (tc,))
    assert B.m_part.invariant_factors == ()
    assert B.n_rank == 1
    B2 = h2_bgc(k4, ())
    assert B2.m_part.invariant_factors == (2,)
    assert B2.n_rank == 0


@pytest.mark.parametrize("name", ["s3", "k4", "q8", "a4", "z4z4"])
def test_sch_genus1_matches_torus_class(name):
    G = get_group(name)
    H2 = h2_group(G)
    for a in range(G.order):
        for b in range(G.order):
            if G.mul[a][b] != G.mul[b][a]:
                continue
            want = H2.cycle_class(torus_cycle(G, a, b)) if (a and b) else None
            got = sch_unbranched(G, ((a, b),))
            if a and b:
                assert got == want
            else:
                assert got == H2.presentation.zero()


@pytest.mark.parametrize("name", ["s3", "k4", "q8", "z3z3"])
def test_sch_connect_sum_additive(name):
    G = get_group(name)
    H2 = h2_group(G)
    closed = enumerate_tuples(G, 1, BranchData.from_dict({}), surjective=False)
    pairs = [(s, t) for s in closed[:10] for t in closed[:10]]
    for s, t in pairs[:100]:
        lhs = sch_unbranched(G, s.handles + t.handles)
        rhs = H2.presentation.add(sch_unbranched(G, s.handles),
                                  sch_unbranched(G, t.handles))
        assert lhs == rhs


def test_unbranched_cycle_is_cycle(s3, k4):
    for G in (s3, k4):
        H2 = h2_group(G)
        closed = enumerate_tuples(G, 2, BranchData.from_dict({}),
                                  surjective=False)
        for t in closed[:50]:
            H2.cycle_class(unbranched_cycle(G, t.handles))
