"""The vectorized level engine, closed and punctured, against the
scalar move evaluator, the hash-BFS orbit engine and the Python
enumeration walk."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from schur_orbits import fastorbits
from schur_orbits.covers import (
    BranchData,
    BranchedTuple,
    BudgetError,
    candidate_count,
    enumerate_tuples,
)
from schur_orbits.fastorbits import (
    _applier,
    build_level,
    closed_orbit_scan,
    orbit_scan,
)
from schur_orbits.groups import build_group
from schur_orbits.moves import apply_move, move_catalog, move_plan, orbits

from conftest import cyclic, get_group, transposition_class
from enumeration_oracle import oracle_enumerate


@st.composite
def letter_tuples(draw):
    """(group, genus, punctures, 1-8 states of letters and signs).  Closed
    states have g = 1..3; punctured ones g = 0..2 and n = 1..5 with
    random signs.  The letters need not satisfy the surface relation,
    since both evaluators act letterwise."""
    G = get_group(draw(st.sampled_from(["s3", "d4", "q8", "a4", "s4"])))
    n = draw(st.integers(0, 5))
    g = draw(st.integers(1, 3) if n == 0 else st.integers(0, 2))
    letter = st.integers(0, G.order - 1)
    sign = st.sampled_from([1, -1])
    states = draw(st.lists(
        st.tuples(st.lists(letter, min_size=2 * g + n, max_size=2 * g + n),
                  st.lists(sign, min_size=n, max_size=n)),
        min_size=1, max_size=8))
    return G, g, n, states


@settings(max_examples=120, deadline=None, database=None)
@given(letter_tuples())
def test_numpy_moves_match_apply_move(case):
    G, g, n, states = case
    L = 2 * g
    cols = [np.array([s[i] for s, _ in states], dtype=np.int64)
            for i in range(L + n)]
    signs = [np.array([o[j] for _, o in states], dtype=np.int64)
             for j in range(n)]
    for m in move_catalog(G, g, n):
        out, out_signs = _applier(G, move_plan(G, m, g, n))(cols, signs)
        for row, (s, o) in enumerate(states):
            t = BranchedTuple(G, g, tuple(zip(s[:L:2], s[1:L:2])),
                              tuple(zip(s[L:], o)))
            moved = apply_move(m, t)
            assert [int(c[row]) for c in out] == moved.letters(), m
            assert [int(c[row]) for c in out_signs] == \
                [o for _, o in moved.punctures], m


def _generic_ids(G, g, cat, level):
    """The hash-BFS orbit table of a closed level, and its orbit id for
    every code of the level's q^{2g} code space (-1 off the level)."""
    slow = orbits(level, cat)
    q = G.order
    ids = np.full(q ** (2 * g), -1, dtype=np.int32)
    for t in level:
        code = 0
        for a, b in t.handles:
            code = (code * q + a) * q + b
        ids[code] = slow.orbit_id(t)
    return slow, ids


@pytest.mark.parametrize("name", ["k4", "s3", "d4", "q8", "a4"])
def test_closed_scan_matches_hash_bfs(name):
    G = get_group(name)
    cat = move_catalog(G, 2, 0)
    fast, n_tuples = closed_orbit_scan(G, 2, cat)
    level = oracle_enumerate(G, 2, BranchData.from_dict({}))
    slow, ids = _generic_ids(G, 2, cat, level)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert all(fast.orbit_id(t) == slow.orbit_id(t) for t in level)
    np.testing.assert_array_equal(fast.ids, ids)


def test_closed_scan_relabelled_generators():
    # A4 from another generating pair: a different element numbering,
    # so different codes, level order and representatives
    G = build_group({"permutations": [[2, 3, 0, 1], [0, 3, 1, 2]]})
    assert G.order == 12 and G.mul != get_group("a4").mul
    cat = move_catalog(G, 2, 0)
    fast, n_tuples = closed_orbit_scan(G, 2, cat)
    level = oracle_enumerate(G, 2, BranchData.from_dict({}))
    slow, ids = _generic_ids(G, 2, cat, level)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    np.testing.assert_array_equal(fast.ids, ids)


# chunk 7 also splits the sweep's frontiers into pieces
@pytest.mark.parametrize("name,g,chunk", [("a4", 2, 1000), ("s3", 3, 4097),
                                          ("z70", 1, 999), ("d4", 2, 7)])
def test_filter_chunking_does_not_change_the_table(name, g, chunk,
                                                   monkeypatch):
    G = cyclic(70) if name == "z70" else get_group(name)
    assert G.order ** (2 * g) % chunk
    cat = move_catalog(G, g, 0)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", G.order ** (2 * g))
    whole, n_whole = closed_orbit_scan(G, g, cat)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", chunk)
    chunked, n_chunked = closed_orbit_scan(G, g, cat)
    assert n_chunked == n_whole
    assert chunked.to_json() == whole.to_json()
    assert chunked.sizes == whole.sizes
    np.testing.assert_array_equal(chunked.ids, whole.ids)


def test_closed_scan_group_over_64_elements():
    # element indices >= 64 used to fall out of a one-word letter mask,
    # so surjective tuples were dropped and the scan failed its
    # move-closure check
    G = cyclic(70)
    cat = move_catalog(G, 1, 0)
    fast, n_tuples = closed_orbit_scan(G, 1, cat)
    level = oracle_enumerate(G, 1, BranchData.from_dict({}))
    slow, ids = _generic_ids(G, 1, cat, level)
    assert n_tuples == len(level) == 3456
    assert fast.to_json() == slow.to_json()
    np.testing.assert_array_equal(fast.ids, ids)


def test_closed_level_cap_is_a_budget_error(s3, monkeypatch):
    monkeypatch.setattr(fastorbits, "VEC_STATE_CAP", 1000)
    with pytest.raises(BudgetError, match="exceeds cap 1000"):
        closed_orbit_scan(s3, 2, move_catalog(s3, 2, 0))


@pytest.mark.parametrize("name,n_tuples", [("s3", 0), ("z1", 1)])
def test_genus_zero_closed_level(name, n_tuples):
    # the empty tuple, surjective only onto the trivial group
    G = cyclic(1) if name == "z1" else get_group(name)
    table, n = closed_orbit_scan(G, 0, move_catalog(G, 0, 0))
    assert n == n_tuples
    assert table.representatives == (BranchedTuple(G, 0, (), ()),) * n_tuples
    assert table.sizes == (1,) * n_tuples
    np.testing.assert_array_equal(table.ids, [0 if n_tuples else -1])


def test_orbit_id_rejects_letters_outside_the_group(k4, s3):
    # 0 * 4 + 6 = 1 * 4 + 2: an unchecked handle letter 6 would alias
    # the code of ((1, 2), (0, 0))
    closed, _ = closed_orbit_scan(k4, 2, move_catalog(k4, 2, 0))
    assert closed.orbit_id(BranchedTuple(k4, 2, ((1, 2), (0, 0)), ())) == 0
    for handles in (((0, 6), (0, 0)), ((-1, 2), (0, 0))):
        with pytest.raises(KeyError):
            closed.orbit_id(BranchedTuple(k4, 2, handles, ()))
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    punctured, _ = orbit_scan(s3, 0, v, move_catalog(s3, 0, 4))
    rep = punctured.representatives[0]
    for bad in ((7, 1), (6, -1), (12, 1), (-5, 1), (rep.punctures[0][0], 2)):
        with pytest.raises(KeyError):
            punctured.orbit_id(BranchedTuple(s3, 0, (), (bad,) + rep.punctures[1:]))


def test_closed_orbit_id_rejects_other_levels(k4):
    table, _ = closed_orbit_scan(k4, 2, move_catalog(k4, 2, 0))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 1, ((1, 2),), ()))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 2, ((1, 2), (0, 0)), ((1, 1), (1, 1))))


@st.composite
def punctured_levels(draw):
    """(group, genus, branch data): 1-5 punctures in 1-3 (class, sign)
    kinds, at most 3,000 candidates."""
    G = get_group(draw(st.sampled_from(["s3", "k4", "d4", "q8", "a4", "s4"])))
    g = draw(st.integers(0, 1))
    classes = [c for c, r in enumerate(G.class_reps) if r != 0]
    terms = draw(st.lists(st.tuples(st.sampled_from(classes),
                                    st.sampled_from([1, -1]),
                                    st.integers(1, 3)),
                          min_size=1, max_size=3))
    d = {}
    for cid, o, k in terms:
        d[(cid, o)] = d.get((cid, o), 0) + k
    v = BranchData.from_dict(d)
    assume(v.cardinality <= 5 and candidate_count(G, g, v) <= 3000)
    return G, g, v


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(punctured_levels())
def test_punctured_scan_matches_hash_bfs(case):
    G, g, v = case
    cat = move_catalog(G, g, v.cardinality)
    fast, n_tuples = orbit_scan(G, g, v, cat)
    level = oracle_enumerate(G, g, v)
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert fast.sizes == slow.sizes
    assert all(fast.orbit_id(t) == slow.orbit_id(t) for t in level)
    members = fast.members()
    assert sorted(t for ts in members.values() for t in ts) == level
    assert all(fast.orbit_id(t) == i for i, ts in members.items() for t in ts)


def test_punctured_scan_signed_level(a4):
    # A4 "3 c, 3 c -": two slot kinds of one class, opposite signs
    c = a4.class_of[1]
    v = BranchData.from_dict({(c, 1): 2, (c, -1): 2})
    cat = move_catalog(a4, 0, 4)
    fast, n_tuples = orbit_scan(a4, 0, v, cat)
    slow = orbits(oracle_enumerate(a4, 0, v), cat)
    assert n_tuples == sum(slow.sizes) > 0
    assert fast.to_json() == slow.to_json()


def test_punctured_chunking_does_not_change_the_table(s3, monkeypatch):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4, (tc, -1): 2})
    cat = move_catalog(s3, 0, 6)
    whole, n_whole = orbit_scan(s3, 0, v, cat)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", 7)
    chunked, n_chunked = orbit_scan(s3, 0, v, cat)
    assert n_chunked == n_whole
    assert chunked.to_json() == whole.to_json()
    np.testing.assert_array_equal(chunked.ids, whole.ids)
    np.testing.assert_array_equal(chunked.level, whole.level)


def test_s4_eight_transpositions_is_one_orbit(s4):
    # 131,040 tuples in one orbit: the hash engine took ~15 s on it
    tc = transposition_class(s4)
    v = BranchData.from_dict({(tc, 1): 8})
    table, n_tuples = orbit_scan(s4, 0, v, move_catalog(s4, 0, 8))
    assert n_tuples == 131040
    assert table.num_orbits == 1 and table.sizes == (131040,)


def test_code_space_overflow_is_a_budget_error_before_allocation(monkeypatch):
    G = cyclic(3)
    # 63 central punctures: only 63 candidates, but 2^63 codes
    v = BranchData.from_dict({(G.class_of[1], 1): 62, (G.class_of[2], 1): 1})
    assert candidate_count(G, 0, v) == 63

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the overflow check")

    monkeypatch.setattr(fastorbits.np, "arange", no_alloc)
    with pytest.raises(BudgetError, match="code space .* overflows int64"):
        build_level(G, 0, v)
    with pytest.raises(BudgetError, match="code space"):
        enumerate_tuples(G, 0, v)


def test_punctured_orbit_id_rejects_other_tuples(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    table, _ = orbit_scan(s3, 0, v, move_catalog(s3, 0, 4))
    rep = table.representatives[0]
    w, o = rep.punctures[0]
    with pytest.raises(KeyError):  # another shape
        table.orbit_id(BranchedTuple(s3, 0, (), rep.punctures[:2]))
    with pytest.raises(KeyError):  # a pair outside the alphabet
        table.orbit_id(BranchedTuple(s3, 0, (), ((w, -o),) + rep.punctures[1:]))
    with pytest.raises(KeyError):  # in the alphabet, off the level
        table.orbit_id(BranchedTuple(s3, 0, (), ((w, o),) * 4))


def test_move_off_the_level_is_a_move_error(s3):
    # one code of a level is not move-closed; every off-level code would
    # otherwise land on its one (visited) position and pass the counts
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 2, (tc, -1): 2})
    codes, level = build_level(s3, 0, v)
    appliers = [_applier(s3, move_plan(s3, m, 0, 4))
                for m in move_catalog(s3, 0, 4)]
    with pytest.raises(fastorbits.MoveError, match="not move-closed"):
        fastorbits._sweep(codes, level[:1], appliers, dense=False)
