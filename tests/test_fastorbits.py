"""The vectorized closed-level engine against the scalar move evaluator
and the hash-BFS orbit engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_orbits.covers import BranchData, BranchedTuple, enumerate_tuples
from schur_orbits.fastorbits import _applier, closed_orbit_scan
from schur_orbits.moves import apply_move, move_catalog, move_plan, orbits

from conftest import get_group


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


@pytest.mark.parametrize("name", ["k4", "s3", "d4", "q8"])
def test_closed_scan_matches_hash_bfs(name):
    G = get_group(name)
    cat = move_catalog(G, 2, 0)
    fast, n_tuples = closed_orbit_scan(G, 2, cat)
    level = enumerate_tuples(G, 2, BranchData.from_dict({}))
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert all(fast.orbit_id(t) == slow.orbit_id(t) for t in level)


def test_closed_orbit_id_rejects_other_levels(k4):
    table, _ = closed_orbit_scan(k4, 2, move_catalog(k4, 2, 0))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 1, ((1, 2),), ()))
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(k4, 2, ((1, 2), (0, 0)), ((1, 1), (1, 1))))
