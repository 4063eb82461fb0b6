"""The value classes: equality, hashing, defaults and immutability.

Each class compares equal to an instance of the same class whose fields
are equal, and to nothing else.  The immutable ones hash by their
fields, so equal instances serve as the same dict key; the mutable ones
are unhashable.  FiniteGroup hashes by (order, mul) and leaves its
element permutations and its cache out of equality.
"""

import pytest

from schur_orbits.branched_schur import (
    ORIENTATION_CONVENTION,
    DiffClass,
)
from schur_orbits.covers import BranchData, BranchedTuple
from schur_orbits.fastorbits import FastOrbitTable, level_orbits
from schur_orbits.groups import FiniteGroup
from schur_orbits.homology import BgcH2, H2Group
from schur_orbits.intlinalg import PresentedAbelianGroup
from schur_orbits.moves import MOVE_SET_TAG, Move, MovePlan, OrbitTable
from schur_orbits.stabilization import StableRangeReport

from conftest import get_group
from intlinalg_oracle import _SNF


def _z2(perms=((0, 1), (1, 0))):
    return FiniteGroup(order=2, mul=((0, 1), (1, 0)), inv=(0, 1),
                       class_of=(0, 1), class_reps=(0, 1), generators=(1,),
                       perms=perms)


def _pres(d=2):
    return PresentedAbelianGroup(1, (d,), ((1,),))


# name -> make(i): make(0) and make(0) are equal, make(1) differs from
# both in one field
IMMUTABLE = {
    "BranchedTuple": lambda i: BranchedTuple(_z2(), 1, ((1, i),), ()),
    "BranchData": lambda i: BranchData((((1, 1), 2 + i),)),
    "Move": lambda i: Move("Braid", i),
    "MovePlan": lambda i: MovePlan(2, i, (), ((0, 2),), ()),
    "DiffClass": lambda i: DiffClass((i,), (2,)),
    "BgcH2": lambda i: BgcH2(_pres(), i, ()),
    "PresentedAbelianGroup": lambda i: _pres(2 + i),
}
MUTABLE = {
    "H2Group": lambda i: H2Group(_z2(), _pres(2 + i), [()]),
    "_SNF": lambda i: _SNF(None, [[2]], None, None, [2 + i], 1),
    "StableRangeReport": lambda i: StableRangeReport("digest", (i,), "tag"),
}
# every immutable class, also those whose dict fields make them unhashable
FROZEN = {
    **IMMUTABLE,
    "FiniteGroup": lambda i: _z2(),
    "OrbitTable": lambda i: OrbitTable(MOVE_SET_TAG, (), (), {}),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_classes_are_equal_and_hashed_by_field(name):
    make = IMMUTABLE[name]
    a, b, c = make(0), make(0), make(1)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c
    assert {a: "x"}[b] == "x"
    assert c not in {a: "x"}
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_classes_are_equal_by_field_and_unhashable(name):
    make = MUTABLE[name]
    a, b, c = make(0), make(0), make(1)
    assert a == b and a != c
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_assigning_a_field_of_an_immutable_class_raises(name):
    obj = FROZEN[name](0)
    field = next(iter(vars(obj)))
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, 7)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


def test_finite_group_hash_and_equality():
    G, H = _z2(), _z2(None)
    G.cache["k"] = 1
    assert G == H and hash(G) == hash(H) == hash((2, ((0, 1), (1, 0))))
    assert G.perms == ((0, 1), (1, 0)) and H.cache == {}
    assert G != FiniteGroup(order=2, mul=G.mul, inv=G.inv, class_of=G.class_of,
                            class_reps=G.class_reps, generators=(),
                            perms=G.perms)
    s3 = get_group("s3")
    assert {s3: 1}[s3] == 1 and s3 != G


def test_branched_tuples_are_dict_keys_and_cache_flat():
    G = get_group("s3")
    t = BranchedTuple(G, 1, ((1, 2),), ((3, 1), (3, -1)))
    u = BranchedTuple(G, 1, ((1, 2),), ((3, 1), (3, -1)))
    assert {t: "t"}[u] == "t"
    assert t.flat == ((1, 2, 3, 3), (1, -1))
    assert t.flat is t.flat and vars(t)["flat"] is t.flat
    v = BranchData.from_dict({(1, 1): 2})
    assert {v: "v"}[BranchData.from_dict({(1, 1): 2, (2, 1): 0})] == "v"


def test_defaults():
    m = Move("TwistA")
    assert (m.kind, m.index, m.element) == ("TwistA", 0, 0)
    assert Move("GlobalConj", element=3) == Move("GlobalConj", 0, 3)
    d = DiffClass((0,), (2,))
    assert (d.move_set, d.convention) == (MOVE_SET_TAG, ORIENTATION_CONVENTION)
    assert d.is_zero()
    assert BgcH2(_pres(), 0, ()).splitting == "non-canonical"
    r, s = StableRangeReport("x", (), "tag"), StableRangeReport("x", (), "tag")
    assert (r.levels, r.stable_count, r.m_order, r.m_invariant_factors,
            r.verdict) == ([], None, None, (), "inconclusive")
    r.levels.append(1)
    r.verdict = "empirical-match"
    assert s.levels == [] and s.verdict == "inconclusive"


def test_fast_orbit_tables_compare_as_orbit_tables():
    G = get_group("k4")
    a, _ = level_orbits(G, 1, BranchData(()), 10_000)
    b, _ = level_orbits(G, 1, BranchData(()), 10_000)
    assert isinstance(a, FastOrbitTable) and a == b
    assert a.positions is a.positions  # built once
    plain = OrbitTable(a.move_set, a.representatives, a.sizes, a.orbit_of)
    assert a != plain and plain == OrbitTable(*(getattr(plain, f) for f in (
        "move_set", "representatives", "sizes", "orbit_of")))
