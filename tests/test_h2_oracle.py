"""h2_group against the direct route of h2_oracle, on the spec generators
of every test group and on relabelled generating sequences."""

import itertools
import random

import numpy as np
import pytest

from schur_orbits import homology
from schur_orbits.groups import _closure_and_bfs_order, build_group
from schur_orbits.homology import (
    HomologyError,
    h2_group,
    torus_cycle,
    unbranched_cycle,
)

from conftest import GROUP_SPECS
from h2_oracle import h2_oracle


def _relabelled(name, seed, redundant=False):
    """A random generating sequence of the spec's group, as the perfbench
    seeds draw one: as many elements as the spec has generators, drawn
    until they generate.  The redundant form puts the identity first
    and one more element (a new one if there is any) last."""
    perms = [tuple(p) for p in GROUP_SPECS[name]["permutations"]]
    n = len(perms[0])
    elems = _closure_and_bfs_order(n, perms)[0]
    rng = random.Random(f"perfbench:{seed}:{name}")
    pool = sorted(elems[1:])
    while True:
        gens = rng.sample(pool, len(perms))
        if len(_closure_and_bfs_order(n, gens)[0]) == len(elems):
            break
    if redundant:
        extra = [p for p in pool if p not in gens] or pool
        gens = [tuple(range(n))] + gens + [rng.choice(extra)]
    return {"permutations": [list(p) for p in gens]}


CASES = [(name, "spec") for name in sorted(GROUP_SPECS)] + [
    (name, form) for name in sorted(GROUP_SPECS)
    if "permutations" in GROUP_SPECS[name]
    for form in ("seed 1", "redundant")]


def _group(name, form):
    if form == "spec":
        return build_group(GROUP_SPECS[name])
    return build_group(_relabelled(name, 2 if form == "redundant" else 1,
                                   redundant=form == "redundant"))


def _closed_chains(G, rng, tries=200):
    """Polygon 2-chains of genus-2 tuples with trivial commutator word:
    random a, b, c and the first d that closes the word, if any."""
    chains = []
    for _ in range(tries):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        for d in range(G.order):
            handles = ((a, b), (c, d))
            word = 0
            for x, y in handles:
                for w in (x, y, G.inv[x], G.inv[y]):
                    word = G.mul[word][w]
            if word == 0:
                chains.append(unbranched_cycle(G, handles))
                break
    return chains


def _dense_coords(H2):
    """The K x (|G|-1)^2 matrix W that H2._coords lists by columns."""
    m = H2.group.order - 1
    W = [[0] * (m * m) for _ in range(H2.presentation.ambient_dim)]
    for p, col in enumerate(H2._coords[:m * m]):
        for k, x in col:
            W[k][p] = x
    assert H2._coords[m * m:] == [()]  # a symbol with an identity entry
    return W


@pytest.mark.parametrize("name,form", CASES)
def test_h2_group_matches_direct_route(name, form):
    G = _group(name, form)
    got, want = h2_group(G), h2_oracle(G)
    assert got.invariant_factors == want.invariant_factors
    # W is a 0/1 matrix on every group here, one 1 per row
    assert _dense_coords(got) == want.W.tolist()
    assert set(np.unique(want.W).tolist()) <= {0, 1}
    rng = random.Random(f"h2-oracle:{name}:{form}")
    chains = [torus_cycle(G, a, b) for a in range(1, G.order)
              for b in range(1, G.order) if G.mul[a][b] == G.mul[b][a]]
    chains += _closed_chains(G, rng)
    for chain in chains:
        assert got.cycle_class(chain) == want.cycle_class(chain)
    K = got.presentation.ambient_dim
    for _ in range(50):
        v = [rng.randrange(G.order) for _ in range(K)]
        assert got.presentation.to_coords(v) == want.presentation.to_coords(v)


# Generating sequences (the identity, the spec generators and the element
# of this BFS index) whose generator columns, absorbed alone, give an
# echelon other than that of all columns; the presentation is built from
# the lattice alone, so it must still be that of all columns.
BASIS_CASES = [("z2^4", 15), ("z4z4", 14)]


@pytest.mark.parametrize("name,extra", BASIS_CASES)
def test_h2_basis_does_not_depend_on_the_generators_given(name, extra):
    perms = [list(p) for p in GROUP_SPECS[name]["permutations"]]
    elems = _closure_and_bfs_order(len(perms[0]), perms)[0]
    G = build_group({"permutations": [list(range(len(perms[0])))] + perms
                     + [list(elems[extra])]})
    got, want = h2_group(G), h2_oracle(G)
    assert got.presentation == want.presentation


def _corrupt_column(monkeypatch, G, target):
    """Make homology._d3_columns drop the [y|z] symbol of the column
    target = (x, y, z), wherever it is read; returns the list of the
    times it was."""
    d3_columns, m, hits = homology._d3_columns, G.order - 1, []

    def corrupted(G, last):
        last = list(last)
        e = range(1, G.order)
        for xyz, col in zip(itertools.product(e, e, last),
                            d3_columns(G, last)):
            if xyz == target:
                hits.append(xyz)
                col = (m * m, *col[1:])  # the index of no symbol
            yield col

    monkeypatch.setattr(homology, "_d3_columns", corrupted)
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    return hits


def test_d2_d3_check_covers_non_generator_columns(monkeypatch):
    # corrupt d3[1|1|z] for a z outside the generators: only the check
    # over all columns can see it
    G = build_group(GROUP_SPECS["s3"])
    z = next(z for z in range(1, G.order) if z not in G.generators)
    hits = _corrupt_column(monkeypatch, G, (1, 1, z))
    with pytest.raises(HomologyError, match="d2 . d3"):
        h2_group(G)
    assert hits == [(1, 1, z)]


def test_d2_d3_check_covers_the_last_column(monkeypatch):
    # corrupt d3[m|m|m], the last of S4's 23^3 columns
    G = build_group(GROUP_SPECS["s4"])
    m = G.order - 1
    hits = _corrupt_column(monkeypatch, G, (m, m, m))
    with pytest.raises(HomologyError, match="d2 . d3"):
        h2_group(G)
    assert hits == [(m, m, m)]
