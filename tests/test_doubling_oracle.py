"""The lifting invariant against the doubling construction."""

import random
from itertools import combinations, product

import pytest

from schur_orbits.branched_schur import (
    DoublingError,
    NormalizationBudgetError,
    lifting_invariant,
)
from schur_orbits.covers import BranchData, branch_data, enumerate_tuples
from schur_orbits.groups import BudgetError, build_group
from schur_orbits.homology import m_g_c
from schur_orbits.stabilization import handle_stabilize

from conftest import GROUP_SPECS, get_group, get_level
from doubling_oracle import _Extension, double, doubling_class


def test_double_structure(k4):
    level = get_level("k4", 2)
    t, t2 = level[0], level[1]
    d = double(t, t2)
    assert d.n == 0
    assert d.genus == 2 * t.genus + max(0, t.n - 1)
    assert d.relation_product() == 0
    with pytest.raises(DoublingError):
        double(t, handle_stabilize(t2))


# element 1 is a transposition of s3 and a 3-cycle of a4
ORACLE_LEVELS = [
    ("k4", 2, ()), ("d4", 2, ()), ("q8", 2, ()), ("z3z3", 2, ()),
    ("z4z4", 2, ()),
    ("s3", 0, ((1, 1, 6),)), ("s3", 1, ((1, 1, 2),)),
    ("a4", 0, ((1, 1, 6),)), ("a4", 0, ((1, 1, 3), (1, -1, 3))),
]


@pytest.mark.parametrize("name,g,spec", ORACLE_LEVELS)
def test_lifting_difference_is_the_doubling_class(name, g, spec):
    # on every pair whose letters the search can match, the difference
    # of lifting invariants is the class of the double; Z/3 and Z/4
    # values fix the sign
    G = get_group(name)
    sample = random.Random(0).sample(get_level(name, g, spec), 6)
    cids = branch_data(sample[0]).class_ids()
    M, _ = m_g_c(G, cids)
    lam = [lifting_invariant(t, cids) for t in sample]
    matched = 0
    for (t, a), (t2, b) in product(zip(sample, lam), repeat=2):
        try:
            want = doubling_class(t, t2, cids)
        except NormalizationBudgetError:
            continue
        assert M.sub(a, b) == want
        matched += t != t2
    assert matched


A5 = {"permutations": [[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]}


def _levels(G, v, budget):
    """The levels of genus 0, 1 and 2 with branch data v, surjective or
    not, that have at most budget tuples."""
    for g in (0, 1, 2):
        try:
            yield enumerate_tuples(G, g, v, surjective=False, budget=budget)
        except BudgetError:
            pass


@pytest.mark.parametrize("name", sorted(GROUP_SPECS) + ["a5"])
def test_lifting_invariant_is_the_extension_reference(name):
    # for every C of at most 2 classes: closed tuples, and tuples with
    # one puncture of each sign in each class of C, of genus 0 to 2 as
    # far as the level is small
    G = build_group(A5 if name == "a5" else GROUP_SPECS[name])
    rng = random.Random(f"extension:{name}")
    closed = [t for level in _levels(G, BranchData(()), 20_000)
              for t in level]
    for k in (0, 1, 2):
        for C in combinations(range(len(G.class_reps)), k):
            ref = _Extension(G, C)
            v = BranchData.from_dict({(c, o): 1 for c in C if c
                                      for o in (1, -1)})
            sample = rng.sample(closed, 4)
            for level in _levels(G, v, 2_000):
                sample += rng.sample(level, min(len(level), 6))
            for t in sample:
                assert lifting_invariant(t, C) == ref.invariant(t)
