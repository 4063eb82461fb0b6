"""Finite group core: tables, classes, centralizers, abelianization."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schur_orbits.groups import (
    GroupBuildError,
    _closure_and_bfs_order,
    _right_generators,
    abelianization,
    build_group,
    centralizer,
    closure,
    generates,
    sha256,
)

from conftest import GROUP_SPECS, get_group
from group_oracle import quotient_by_normal_closure


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_group_axioms_exhaustive(name):
    G = get_group(name)
    n = G.order
    for x in range(n):
        assert G.mul[0][x] == x and G.mul[x][0] == x
        assert G.mul[x][G.inv[x]] == 0 and G.mul[G.inv[x]][x] == 0
    if n <= 12:
        for x, y, z in itertools.product(range(n), repeat=3):
            assert G.mul[G.mul[x][y]][z] == G.mul[x][G.mul[y][z]]


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_class_equation(name):
    G = get_group(name)
    sizes = [len(G.class_members(c)) for c in range(len(G.class_reps))]
    assert sum(sizes) == G.order
    # conjugation-invariance: classes really are closed under conjugation
    for x in range(G.order):
        for gph in range(G.order):
            assert G.class_of[G.conj(x, gph)] == G.class_of[x]


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_centralizer_orbit_stabilizer(name):
    G = get_group(name)
    for c in G.class_reps:
        cls = len(G.class_members(G.class_of[c]))
        assert len(centralizer(G, c)) * cls == G.order


def test_s3_class_data(s3):
    sizes = sorted(len(G := s3.class_members(c)) and len(G)
                   for c in range(len(s3.class_reps)))
    assert sizes == [1, 2, 3]


def test_element_orders(s3, q8):
    orders = sorted(s3.element_order(x) for x in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_q8_is_not_d4(q8, d4):
    # same order and class sizes, different element orders
    assert q8.order == d4.order == 8
    assert sorted(q8.element_order(x) for x in range(8)) != \
        sorted(d4.element_order(x) for x in range(8))


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_abelianization_is_homomorphism(name):
    G = get_group(name)
    A, proj = abelianization(G)
    for x in range(G.order):
        for y in range(G.order):
            assert proj(G.mul[x][y]) == A.add(proj(x), proj(y))
    # commutators die
    for x in range(G.order):
        for y in range(G.order):
            assert proj(G.commutator(x, y)) == A.zero()


def test_abelianization_values(s3, k4, q8, a4, s4):
    assert abelianization(s3)[0].invariant_factors == (2,)
    assert abelianization(k4)[0].invariant_factors == (2, 2)
    assert abelianization(q8)[0].invariant_factors == (2, 2)
    assert abelianization(a4)[0].invariant_factors == (3,)
    assert abelianization(s4)[0].invariant_factors == (2,)


def test_closure_and_generates(s3):
    transp = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    three = next(x for x in range(1, 6) if s3.element_order(x) == 3)
    assert len(closure(s3, [three])) == 3
    assert generates(s3, [transp, three])
    assert not generates(s3, [three])


def _closure_reference(G, S):
    """Close {0} and S under all pairwise products."""
    out = {0, *S}
    while True:
        more = {G.mul[x][y] for x in out for y in out} - out
        if not more:
            return tuple(sorted(out))
        out |= more


# closure takes right products only, which reach the subgroup since
# s^-1 = s^(ord s - 1) in a finite group
@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(GROUP_SPECS)), data=st.data())
def test_closure_matches_closing_under_all_products(name, data):
    G = get_group(name)
    S = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    assert closure(G, S) == _closure_reference(G, S)


def test_quotient_by_normal_closure(s3, q8):
    # S3 / <<3-cycle>> = Z/2
    three = next(x for x in range(1, 6) if s3.element_order(x) == 3)
    Q, coset = quotient_by_normal_closure(s3, [three])
    assert Q.order == 2
    assert coset[three] == 0
    # Q8 / <<-1>> = Z/2 x Z/2
    minus_one = next(x for x in range(8) if x != 0 and q8.element_order(x) == 2)
    Q2, _ = quotient_by_normal_closure(q8, [minus_one])
    assert Q2.order == 4 and Q2.is_abelian()


def test_table_build_rejects_garbage():
    with pytest.raises(GroupBuildError):
        build_group({"cayley_table": [[0, 1], [1, 1]]})
    with pytest.raises(GroupBuildError):
        build_group({"permutations": [[0, 0, 1]]})
    with pytest.raises(GroupBuildError):
        build_group({})


class _CountedPerm(tuple):
    """A permutation that counts the points read through it."""
    reads = 0

    def __getitem__(self, i):
        _CountedPerm.reads += 1
        return tuple.__getitem__(self, i)


def test_closure_stops_one_element_past_the_cap():
    # S9 has 362,880 elements: closed in full before the cap check, it
    # took 1.5 s for group-info to reject it
    gens = [_CountedPerm((*range(1, 9), 0)), _CountedPerm((1, 0, *range(2, 9)))]
    _CountedPerm.reads = 0
    elems, index = _closure_and_bfs_order(9, gens, cap=5)
    assert len(elems) == len(index) == 6
    # each product p after g reads g at all 9 points; at most the 6
    # elements walked are multiplied by each of the 2 generators
    assert _CountedPerm.reads <= 6 * 2 * 9
    with pytest.raises(GroupBuildError, match="more than 5 elements"):
        build_group({"permutations": [list(g) for g in gens]}, max_order=5)


def test_a_cap_the_group_meets_closes_it_in_full(s4):
    gens = [s4.perms[g] for g in s4.generators]
    assert _closure_and_bfs_order(4, gens, cap=24) == _closure_and_bfs_order(4, gens)
    spec = {"permutations": [list(g) for g in gens]}
    assert build_group(spec, max_order=24) == s4
    with pytest.raises(GroupBuildError, match="more than 23 elements"):
        build_group(spec, max_order=23)


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _intercalate_swap(table, t, y, u):
    """The table with one intercalate swapped, t an involution: rows y and
    yt and columns u and tu hold yu = (yt)(tu) and y(tu) = (yt)u, which
    trade places.  The result is still a Latin square."""
    T = [list(row) for row in table]
    yt, tu = T[y][t], T[t][u]
    a, b = T[y][u], T[y][tu]
    T[y][u] = T[yt][tu] = b
    T[y][tu] = T[yt][u] = a
    return T


def _is_group_exhaustive(table):
    """The group axioms on a Cayley table, associativity on all n^3
    triples: the reference for build_group's checks."""
    T = np.array(table)
    ar = np.arange(len(T))
    ids = [e for e in ar if (T[e] == ar).all() and (T[:, e] == ar).all()]
    return bool(ids and ((T == ids[0]) & (T.T == ids[0])).any(axis=1).all()
                and (T[T] == T[:, T]).all())


def test_z120_intercalate_swap_is_rejected():
    # rows 19 and 79, columns 29 and 89 of Z/120: 1,872 of the 120^3
    # triples are non-associative, too few for 5,000 sampled triples to
    # be sure of meeting one
    T = _intercalate_swap(_cyclic_table(120), 60, 19, 29)
    assert not _is_group_exhaustive(T)
    with pytest.raises(GroupBuildError, match="non-associative"):
        build_group({"cayley_table": T})


@settings(max_examples=200, deadline=None)
@example(source=120, i=0, y=19, u=29)
@given(source=st.one_of(st.sampled_from(sorted(GROUP_SPECS)),
                        st.integers(1, 60).map(lambda h: 2 * h)),
       i=st.integers(0, 119), y=st.integers(0, 119), u=st.integers(0, 119))
def test_intercalate_swaps_are_judged_like_the_exhaustive_check(source, i,
                                                                 y, u):
    # source: a spec group, or the cyclic group of that even order
    table = (_cyclic_table(source) if isinstance(source, int)
             else get_group(source).mul)
    n = len(table)
    involutions = [t for t in range(1, n) if table[t][t] == 0]
    assume(involutions)
    T = _intercalate_swap(table, involutions[i % len(involutions)], y % n,
                          u % n)
    try:
        build_group({"cayley_table": T})
        accepted = True
    except GroupBuildError:
        accepted = False
    assert accepted == _is_group_exhaustive(T)


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_a_table_group_has_the_greedy_right_generators(name):
    # the set _validate_table checks associativity on, and no other
    G = get_group(name)
    T = build_group({"cayley_table": [list(row) for row in G.mul]})
    assert T.mul == G.mul
    assert T.generators == tuple(_right_generators(G.mul))


def test_table_identity_relocation():
    # identity at index 1; builder must renumber it to 0
    table = [[1, 0], [0, 1]]
    G = build_group({"cayley_table": table})
    assert G.order == 2 and G.mul[0][0] == 0 and G.mul[1][1] == 0


def test_digest_is_stable(s3):
    G2 = build_group(GROUP_SPECS["s3"])
    assert G2.digest == s3.digest
    # cache entries are keyed by it, so it must not change with the code
    assert s3.digest == "dfd9e4047a6f8efa"


def test_digest_is_cached_and_left_out_of_equality():
    G, G2 = build_group(GROUP_SPECS["d4"]), build_group(GROUP_SPECS["d4"])
    assert "digest" not in vars(G)
    blob = json.dumps([list(r) for r in G.mul], separators=(",", ":"))
    assert G.digest == hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert vars(G)["digest"] is G.digest  # computed once, then read
    assert G2.digest == G.digest
    G3 = build_group(GROUP_SPECS["d4"])  # its digest never read
    assert G3 == G and hash(G3) == hash(G)
    with pytest.raises(AttributeError):
        G.digest = "0" * 16


@given(st.lists(st.binary(max_size=300), max_size=8))
def test_sha256_matches_hashlib(chunks):
    # fed in chunks, the way the CLI's source digest is
    ours, theirs = sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.hexdigest() == theirs.hexdigest()
    assert sha256(b"".join(chunks)).digest() == theirs.digest()
