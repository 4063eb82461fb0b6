"""Branched tuples: validation, branch data, enumeration counts."""

import pytest

from schur_orbits.covers import (
    BranchData,
    BudgetError,
    TupleError,
    branch_data,
    enumerate_tuples,
    is_surjective,
    make_tuple,
    tuple_from_json,
    tuple_to_json,
)

from conftest import get_group, transposition_class


def test_make_tuple_validates_relation(s3):
    # commuting pair passes at genus 1
    t = make_tuple(s3, 1, [(0, 1)], [])
    assert t.genus == 1 and t.n == 0
    # non-commuting pair with no puncture to absorb the commutator
    a = next(x for x in range(1, 6) if s3.element_order(x) == 2)
    b = next(x for x in range(1, 6) if s3.element_order(x) == 3)
    if s3.commutator(a, b) != 0:
        with pytest.raises(TupleError):
            make_tuple(s3, 1, [(a, b)], [])


def test_make_tuple_rejects_identity_letters(s3):
    with pytest.raises(TupleError):
        make_tuple(s3, 0, [], [(0, 1), (0, 1)])


def test_make_tuple_rejects_bad_signs(s3):
    a = 1
    with pytest.raises(TupleError):
        make_tuple(s3, 0, [], [(a, 2), (s3.inv[a], 1)])


@pytest.mark.parametrize("g,handles,punctures", [
    (0, [], [(1, 1), (-5, 1)]),  # -5 would wrap to 1 through G.mul
    (1, [(0, -6)], []),
    (1, [(6, 0)], []),
    (0, [], [(6, 1), (1, 1)]),
])
def test_make_tuple_rejects_letters_outside_the_group(s3, g, handles,
                                                      punctures):
    with pytest.raises(TupleError, match="out of range 0..5"):
        make_tuple(s3, g, handles, punctures)


def test_negative_framing_branch_class(s3):
    # the branch class of (w, -1) is the class of w^{-1}
    a = next(x for x in range(1, 6) if s3.element_order(x) == 3)
    t = make_tuple(s3, 0, [], [(a, 1), (s3.inv[a], -1)])
    assert t.branch_class(0) == (s3.class_of[a], 1)
    assert t.branch_class(1) == (s3.class_of[a], -1)
    bd = branch_data(t)
    assert bd.as_dict() == {(s3.class_of[a], 1): 1, (s3.class_of[a], -1): 1}


@pytest.mark.parametrize("name,g", [("z2", 1), ("z3", 1), ("s3", 1), ("k4", 2)])
def test_closed_level_count_brute_force(name, g):
    G = get_group(name)
    import itertools

    total = 0
    for handles in itertools.product(range(G.order), repeat=2 * g):
        p = 0
        for i in range(g):
            p = G.mul[p][G.commutator(handles[2 * i], handles[2 * i + 1])]
        if p == 0:
            total += 1
    got = enumerate_tuples(G, g, BranchData.from_dict({}), surjective=False)
    assert len(got) == total


def test_s3_transposition_count_genus0(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    ts = enumerate_tuples(s3, 0, v, surjective=True)
    assert len(ts) == 24
    all_ts = enumerate_tuples(s3, 0, v, surjective=False)
    # 27 = 3^3 triples determine the 4th letter; 3 are constant and
    # non-surjective
    assert len(all_ts) == 27
    assert sum(1 for t in all_ts if is_surjective(t)) == 24


def test_k4_generating_pairs(k4):
    ts = enumerate_tuples(k4, 1, BranchData.from_dict({}), surjective=True)
    # ordered bases of F_2^2: |GL_2(F_2)| = 6
    assert len(ts) == 6
    all_ts = enumerate_tuples(k4, 1, BranchData.from_dict({}), surjective=False)
    assert len(all_ts) == 16  # abelian: all pairs commute


def test_enumeration_deterministic(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    a = enumerate_tuples(s3, 0, v)
    b = enumerate_tuples(s3, 0, v)
    assert a == b
    assert a == sorted(a)


def test_enumeration_budget(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 6})
    with pytest.raises(BudgetError):
        enumerate_tuples(s3, 0, v, budget=5)


def test_json_round_trip(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    for t in enumerate_tuples(s3, 0, v)[:5]:
        assert tuple_from_json(s3, tuple_to_json(t)) == t
    closed = enumerate_tuples(s3, 1, BranchData.from_dict({}), surjective=False)
    for t in closed[:5]:
        assert tuple_from_json(s3, tuple_to_json(t)) == t


def test_branch_data_cardinality_and_order(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 2, (tc, -1): 1})
    assert v.cardinality == 3
