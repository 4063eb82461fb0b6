"""Finite group core: tables, classes, centralizers, abelianization."""

import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schur_orbits.groups import (
    GroupBuildError,
    abelianization,
    build_group,
    centralizer,
    closure,
    commutator_length,
    derived_subgroup,
    generates,
    inn_order_on_class,
    quotient_by_normal_closure,
    sha256,
)

from conftest import GROUP_SPECS, get_group


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
    # transpositions: conjugation by a transposition moves the other two
    for c in range(len(s3.class_reps)):
        rep = s3.class_reps[c]
        if rep == 0:
            continue
        if s3.element_order(rep) == 2:
            assert inn_order_on_class(s3, rep) == 2
        else:
            # a 3-cycle centralizes both 3-cycles
            assert inn_order_on_class(s3, rep) == 1


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


def test_derived_subgroup(s3, a4):
    assert len(derived_subgroup(s3)) == 3
    assert len(derived_subgroup(a4)) == 4


def test_commutator_length(s3, q8):
    # in S3 the derived subgroup is the 3-cycles, each a single commutator
    for x in range(6):
        cl = commutator_length(s3, x)
        if s3.element_order(x) in (1, 3):
            assert cl == (0 if x == 0 else 1)
        else:
            assert cl is None
    # -1 in Q8 is a commutator
    minus_one = next(x for x in range(8) if x != 0 and q8.element_order(x) == 2)
    assert commutator_length(q8, minus_one) == 1


def test_closure_and_generates(s3):
    transp = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    three = next(x for x in range(1, 6) if s3.element_order(x) == 3)
    assert len(closure(s3, [three])) == 3
    assert generates(s3, [transp, three])
    assert not generates(s3, [three])


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


@given(st.lists(st.binary(max_size=300), max_size=8))
def test_sha256_matches_hashlib(chunks):
    # fed in chunks, the way the CLI's source digest is
    ours, theirs = sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.hexdigest() == theirs.hexdigest()
    assert sha256(b"".join(chunks)).digest() == theirs.digest()
