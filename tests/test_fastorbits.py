"""The vectorized closed-level engine against the scalar move evaluator
and the hash-BFS orbit engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_orbits import fastorbits
from schur_orbits.covers import (
    BranchData,
    BranchedTuple,
    BudgetError,
    enumerate_tuples,
)
from schur_orbits.fastorbits import _applier, closed_orbit_scan
from schur_orbits.groups import build_group
from schur_orbits.moves import apply_move, move_catalog, move_plan, orbits

from conftest import cyclic, get_group


@st.composite
def closed_letter_tuples(draw):
    """(group, genus, 1-8 handle letter lists); the letters need not
    satisfy the surface relation, since both evaluators act letterwise."""
    G = get_group(draw(st.sampled_from(["s3", "d4", "q8", "a4", "s4"])))
    g = draw(st.integers(1, 3))
    letter = st.integers(0, G.order - 1)
    states = draw(st.lists(st.lists(letter, min_size=2 * g, max_size=2 * g),
                           min_size=1, max_size=8))
    return G, g, states


@settings(max_examples=60, deadline=None, database=None)
@given(closed_letter_tuples())
def test_numpy_moves_match_apply_move(case):
    G, g, states = case
    cols = [np.array([s[i] for s in states], dtype=np.int64)
            for i in range(2 * g)]
    for m in move_catalog(G, g, 0):
        out = _applier(G, move_plan(G, m, g, 0))(cols)
        for row, s in enumerate(states):
            t = BranchedTuple(G, g, tuple(zip(s[::2], s[1::2])), ())
            want = apply_move(m, t).letters()
            assert [int(c[row]) for c in out] == want, m


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
    level = enumerate_tuples(G, 2, BranchData.from_dict({}))
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
    level = enumerate_tuples(G, 2, BranchData.from_dict({}))
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
    level = enumerate_tuples(G, 1, BranchData.from_dict({}))
    slow, ids = _generic_ids(G, 1, cat, level)
    assert n_tuples == len(level) == 3456
    assert fast.to_json() == slow.to_json()
    np.testing.assert_array_equal(fast.ids, ids)


def test_closed_level_cap_is_a_budget_error(s3):
    with pytest.raises(BudgetError, match="exceeds cap 1000"):
        closed_orbit_scan(s3, 2, move_catalog(s3, 2, 0), cap=1000)


def test_closed_orbit_id_rejects_other_levels(k4):
    table, _ = closed_orbit_scan(k4, 2, move_catalog(k4, 2, 0))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 1, ((1, 2),), ()))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 2, ((1, 2), (0, 0)), ((1, 1), (1, 1))))
