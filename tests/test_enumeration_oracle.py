"""The vectorized enumeration, closed and punctured, against the Python
walks it replaced (enumeration_oracle) and against exact level sizes
counted without enumeration (level_count_oracle)."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from schur_orbits.covers import BranchData, BudgetError, enumerate_tuples
from schur_orbits.fastorbits import build_level, level_orbits

from conftest import cyclic, get_group
from enumeration_oracle import oracle_enumerate, walked_prefixes
from level_count_oracle import level_count, subgroups


def _level(name, g, spec):
    """(group, branch data) from (element, sign, count) terms."""
    G = cyclic(int(name[1:])) if name in ("z1", "z70") else get_group(name)
    d = {}
    for x, o, k in spec:
        d[(G.class_of[x], o)] = d.get((G.class_of[x], o), 0) + k
    return G, BranchData.from_dict(d)


LEVELS = [
    ("s3", 0, ((1, 1, 4),)),
    ("s3", 1, ((1, 1, 2),)),
    ("s3", 0, ((1, 1, 2), (2, 1, 2))),
    ("s3", 0, ((2, 1, 2), (2, -1, 2))),
    ("a4", 0, ((1, 1, 3), (1, -1, 2))),
    ("d4", 1, ((1, 1, 1), (2, -1, 1))),
    ("q8", 0, ((2, 1, 2), (4, -1, 2))),
    ("k4", 1, ((1, 1, 2),)),
    ("s4", 0, ((1, 1, 4),)),
] + [(name, g, ()) for name in ("s3", "k4", "d4", "q8", "a4") for g in (1, 2)] + [
    ("z70", 1, ()),
    ("s3", 0, ()),  # the empty tuple, surjective only onto the trivial group
    ("z1", 0, ()),
    ("k4", 3, ()),
    ("s3", 3, ()),
    # three kinds of both signs: the builder walks their kind-count states
    ("k4", 0, ((1, 1, 2), (2, -1, 2), (3, 1, 2))),
    ("s4", 0, ((1, 1, 2), (4, 1, 1), (4, -1, 1))),
    ("d4", 1, ((1, 1, 1), (1, -1, 1), (2, 1, 2))),
]


@pytest.mark.parametrize("surjective", [True, False])
@pytest.mark.parametrize("name,g,spec", LEVELS)
def test_vectorized_enumeration_equals_the_walk(name, g, spec, surjective):
    G, v = _level(name, g, spec)
    got = enumerate_tuples(G, g, v, surjective=surjective)
    assert got == oracle_enumerate(G, g, v, surjective=surjective)


# the builder's budget counts the prefixes it walks (walked_prefixes, by
# walking the slot orders), and enumeration's counts the tuples too: each
# passes at its count and raises one below it (the genus-0 closed levels
# are in test_fastorbits.test_closed_budget_counts_the_handle_prefixes)
@pytest.mark.parametrize("name,g,spec", [lv for lv in LEVELS if lv[1] or lv[2]])
def test_budget_error_exactly_when_the_walk_raises(name, g, spec):
    G, v = _level(name, g, spec)
    prefixes = walked_prefixes(G, g, v)
    build_level(G, g, v, budget=prefixes)
    with pytest.raises(BudgetError, match=f"budget {prefixes - 1} exhausted$"):
        build_level(G, g, v, budget=prefixes - 1)
    level = oracle_enumerate(G, g, v)
    count = max(prefixes, len(level))
    assert enumerate_tuples(G, g, v, budget=count) == level
    with pytest.raises(BudgetError, match=f"budget {count - 1} exhausted"):
        enumerate_tuples(G, g, v, budget=count - 1)


def test_empty_pool_levels_are_empty(s3):
    # the identity class has no puncture letters
    v = BranchData.from_dict({(s3.class_of[0], 1): 1, (s3.class_of[1], 1): 2})
    assert enumerate_tuples(s3, 0, v, surjective=False) == []
    assert oracle_enumerate(s3, 0, v, surjective=False) == []


def test_subgroup_lattice_sizes():
    # S3: 1, three of order 2, A3, S3; S4 has 30 subgroups
    assert [len(H) for H in subgroups(get_group("s3"))] == [1, 2, 2, 2, 3, 6]
    assert len(subgroups(get_group("s4"))) == 30


@st.composite
def small_levels(draw):
    """(group, genus, branch data) with at most 5 punctures, or closed
    at genus 1-2, small enough to count by brute force."""
    G = get_group(draw(st.sampled_from(["s3", "k4", "d4", "q8", "a4", "s4"])))
    g = draw(st.integers(0, 2))
    classes = [c for c, r in enumerate(G.class_reps) if r != 0]
    terms = draw(st.lists(st.tuples(st.sampled_from(classes),
                                    st.sampled_from([1, -1]),
                                    st.integers(1, 3)), max_size=3))
    d = {}
    for cid, o, k in terms:
        d[(cid, o)] = d.get((cid, o), 0) + k
    v = BranchData.from_dict(d)
    if v.cardinality == 0:
        assume(1 <= g and G.order ** (2 * g) <= 20_000)
    else:
        assume(v.cardinality <= 5 and walked_prefixes(G, g, v) <= 20_000)
    return G, g, v


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_levels())
def test_level_sizes_match_the_count_oracle(case):
    # the builder holds every tuple of the relation, the orbit table
    # the surjective ones
    G, g, v = case
    codes, level = build_level(G, g, v)
    assert int(codes.weight(level).sum()) == level_count(G, g, v, False)
    table, size = level_orbits(G, g, v)
    assert size == int(codes.weight(table.level).sum())
    assert size == level_count(G, g, v, True)
    assert (enumerate_tuples(G, g, v, surjective=False)
            == oracle_enumerate(G, g, v, surjective=False))
