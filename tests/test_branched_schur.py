"""Branched Schur invariants: the lifting invariant, diff classes, torsor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_orbits.branched_schur import (
    DoublingError,
    NormalizationBudgetError,
    lifting_invariant,
    normalize_letters,
    schur_diff,
    torsor_check,
)
from schur_orbits.covers import (
    BranchData,
    BranchedTuple,
    branch_data,
    enumerate_tuples,
)
from schur_orbits.homology import m_g_c
from schur_orbits.moves import Move, apply_move, move_catalog, orbits
from schur_orbits.stabilization import dilate, handle_stabilize, puncture_stabilize

from conftest import get_group, get_level, transposition_class


def s3_level(s3, n=4):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): n})
    return enumerate_tuples(s3, 0, v, surjective=True), tc


def k4_level(k4, g=2):
    return enumerate_tuples(k4, g, BranchData.from_dict({}), surjective=True)


def test_self_diff_zero(s3, k4):
    level, tc = s3_level(s3)
    for t in level[:5]:
        assert schur_diff(t, t).is_zero()
    for t in k4_level(k4)[:5]:
        assert schur_diff(t, t, class_ids=()).is_zero()


def test_same_orbit_diff_zero(s3):
    level, tc = s3_level(s3)
    tab = orbits(level, move_catalog(s3, 0, 4))
    assert tab.num_orbits == 1
    for t in level[1:6]:
        assert schur_diff(level[0], t).is_zero()


def test_antisymmetry_and_cocycle(k4):
    level = k4_level(k4)
    M, _ = m_g_c(k4, ())
    sample = level[::37][:6]
    D = {}
    for i, s in enumerate(sample):
        for j, t in enumerate(sample):
            D[i, j] = schur_diff(s, t, class_ids=()).coords
    k = len(sample)
    for i in range(k):
        for j in range(k):
            assert D[i, j] == M.neg(D[j, i])
            for l in range(k):
                assert M.add(D[i, j], D[j, l]) == D[i, l]


def test_move_invariance(k4):
    level = k4_level(k4)
    t, t2 = level[0], level[-1]
    base = schur_diff(t, t2, class_ids=()).coords
    for m in move_catalog(k4, 2, 0):
        assert schur_diff(apply_move(m, t), t2, class_ids=()).coords == base
        assert schur_diff(t, apply_move(m, t2), class_ids=()).coords == base


def test_stabilization_invariance(s3):
    level, tc = s3_level(s3)
    tab = orbits(level, move_catalog(s3, 0, 4))
    t, t2 = level[0], level[5]
    base = schur_diff(t, t2).coords
    ps = schur_diff(dilate(puncture_stabilize(t, tc)),
                    dilate(puncture_stabilize(t2, tc)))
    assert ps.coords == base
    hs = schur_diff(handle_stabilize(t), handle_stabilize(t2))
    assert hs.coords == base


def test_dilation_invariance(s3):
    tc = transposition_class(s3)
    level, _ = s3_level(s3)
    t, t2 = level[0], level[5]
    # add a cancelling negative pair, then dilate both
    s, s2 = puncture_stabilize(t, tc), puncture_stabilize(t2, tc)
    assert schur_diff(dilate(s), dilate(s2)).coords == \
        schur_diff(t, t2).coords


def test_separation_k4(k4):
    level = k4_level(k4)
    tab = orbits(level, move_catalog(k4, 2, 0))
    assert tab.num_orbits == 2
    r0, r1 = tab.representatives
    assert schur_diff(r0, r0, class_ids=()).is_zero()
    d = schur_diff(r0, r1, class_ids=())
    assert not d.is_zero()
    assert d.invariant_factors == (2,)


def test_double_well_defined_mod_c_tori(s3):
    # replacing the second tuple by another orbit representative with
    # the same letters must not change the class
    level, tc = s3_level(s3)
    t, t2 = level[0], level[7]
    base = schur_diff(t, t2).coords
    for m in move_catalog(s3, 0, 4)[:8]:
        assert schur_diff(t, apply_move(m, t2)).coords == base


def test_normalize_letters_finds_target(s3):
    level, tc = s3_level(s3)
    t, t2 = level[0], level[3]
    s = normalize_letters(t2, t.punctures)
    assert s.punctures == t.punctures
    assert s.relation_product() == 0


def test_normalize_letters_rejects_wrong_data(s3):
    level, tc = s3_level(s3)
    t = level[0]
    bigger, _ = s3_level(s3, 6)
    with pytest.raises(DoublingError):
        normalize_letters(bigger[0], t.punctures)


def test_diff_requires_matching_branch_data(s3, k4):
    level, tc = s3_level(s3)
    bigger, _ = s3_level(s3, 6)
    with pytest.raises(DoublingError):
        schur_diff(level[0], bigger[0])


def test_torsor_check_s3(s3):
    level, tc = s3_level(s3)
    tab = orbits(level, move_catalog(s3, 0, 4))
    rep = torsor_check(tab.representatives, class_ids=(tc,))
    assert rep["passed"]
    assert rep["orbits"] == 1 and rep["m_order"] == 1


def test_torsor_check_k4(k4):
    tab = orbits(k4_level(k4), move_catalog(k4, 2, 0))
    rep = torsor_check(tab.representatives, class_ids=())
    assert rep["passed"]
    assert rep["orbits"] == 2 and rep["m_order"] == 2
    flat = sorted(tuple(x) for row in rep["diff_matrix"] for x in row)
    assert flat == [(0,), (0,), (1,), (1,)]


def test_torsor_check_nontrivial_m_with_branching_classes(z2z4):
    # C = the singleton central class of the square of an order-4
    # element; the C-tori are trivial in H2, so M(G)_C = Z/2 survives
    b = next(x for x in range(z2z4.order) if z2z4.element_order(x) == 4)
    cid = z2z4.class_of[z2z4.mul[b][b]]
    M, _ = m_g_c(z2z4, (cid,))
    assert M.invariant_factors == (2,)
    level = enumerate_tuples(z2z4, 2, BranchData.from_dict({}),
                             surjective=True)
    tab = orbits(level, move_catalog(z2z4, 2, 0))
    assert tab.num_orbits == 2
    rep = torsor_check(tab.representatives, class_ids=(cid,))
    assert rep["passed"] and rep["m_order"] == 2


def test_torsor_detects_wrong_rep_set(k4):
    # two representatives from the same orbit cannot enumerate M = Z/2
    level = k4_level(k4)
    tab = orbits(level, move_catalog(k4, 2, 0))
    members = [t for t in level if tab.orbit_id(t) == 0][:2]
    rep = torsor_check(members, class_ids=())
    assert not rep["passed"]


@pytest.mark.parametrize("g,n,j,least,handles,punctures", [
    (0, 6, 100, 237, (), ((1, 1), (1, 1), (1, 1), (1, 1), (3, 1), (3, 1))),
    (1, 4, 388, 52, ((2, 2),), ((1, 1), (1, 1), (3, 1), (3, 1))),
], ids=["g0-6-transpositions", "g1-4-transpositions"])
def test_normalize_letters_budget_counts_states(s3, g, n, j, least, handles,
                                                punctures):
    # the search visits states in a fixed breadth-first order, and the
    # budget counts the states after the start: `least` is the smallest
    # budget that reaches the first tuple with the target letters
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): n})
    level = enumerate_tuples(s3, g, v, surjective=True)
    t, t2 = level[0], level[j]
    s = normalize_letters(t2, t.punctures, budget=least)
    assert (s.handles, s.punctures) == (handles, punctures)
    with pytest.raises(NormalizationBudgetError):
        normalize_letters(t2, t.punctures, budget=least - 1)


# (group, genus, branch spec) of small levels; element 1 is a
# transposition of s3 and a 3-cycle of a4, element 2 a reflection of d4,
# elements 2 and 4 are i and j of q8
INVARIANCE_LEVELS = [
    ("s3", 0, ((1, 1, 4),)), ("s3", 1, ((1, 1, 2),)), ("s3", 2, ()),
    ("a4", 0, ((1, 1, 6),)), ("a4", 0, ((1, 1, 3), (1, -1, 3))),
    ("a4", 1, ((1, 1, 3),)), ("a4", 2, ()),
    ("d4", 1, ((2, 1, 2),)), ("d4", 2, ()),
    ("q8", 0, ((2, 1, 2), (4, 1, 2))), ("q8", 2, ()),
    ("k4", 0, ((1, 1, 2), (2, 1, 2))), ("k4", 2, ()),
    ("z3z3", 0, ((1, 1, 3), (2, 1, 3))), ("z3z3", 1, ()), ("z3z3", 2, ()),
]


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(INVARIANCE_LEVELS), st.data())
def test_lifting_invariant_is_a_move_and_stabilization_invariant(level, data):
    name, g, spec = level
    G = get_group(name)
    t = data.draw(st.sampled_from(get_level(name, g, spec)))
    cids = branch_data(t).class_ids()
    lam = lifting_invariant(t, cids)
    for m in move_catalog(G, t.genus, t.n):
        assert lifting_invariant(apply_move(m, t), cids) == lam
    assert lifting_invariant(handle_stabilize(t), cids) == lam
    for cid in cids:
        x = data.draw(st.sampled_from(G.class_members(cid)))
        assert lifting_invariant(puncture_stabilize(t, cid, x), cids) == lam


@pytest.mark.parametrize("spec", [((1, 1, 6),), ((1, 1, 3), (1, -1, 3))])
def test_torsor_check_a4_three_cycles(a4, spec):
    # no move matches letters across the two orbits of these levels, so
    # the invariant must not depend on a letter search
    tab = orbits(get_level("a4", 0, spec), move_catalog(a4, 0, 6))
    rep = torsor_check(tab.representatives, class_ids=(a4.class_of[1],))
    assert rep["passed"], rep["failures"]
    assert rep["orbits"] == rep["m_order"] == 2


def test_branch_class_outside_c_is_an_error(s3):
    level, tc = s3_level(s3)
    with pytest.raises(DoublingError, match="not in C"):
        lifting_invariant(level[0], ())
    with pytest.raises(DoublingError, match="not in C"):
        schur_diff(level[0], level[1], class_ids=())


def test_tuple_off_the_relation_is_an_error(s3):
    # element 1 is a transposition and element 2 a 3-cycle of s3
    tc = s3.class_of[1]
    off = [BranchedTuple(s3, 1, ((1, 2),), ()),
           BranchedTuple(s3, 0, (), ((1, 1),)),
           BranchedTuple(s3, 1, ((1, 2),), ((1, -1), (1, 1)))]
    for t in off:
        assert t.relation_product() != 0
        with pytest.raises(DoublingError, match="violates the surface relation"):
            lifting_invariant(t, (tc,))
