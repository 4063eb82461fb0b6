"""h2_group against the direct route of h2_oracle, on the spec generators
of every test group and on relabelled generating sequences."""

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


@pytest.mark.parametrize("name,form", CASES)
def test_h2_group_matches_direct_route(name, form):
    G = _group(name, form)
    got, want = h2_group(G), h2_oracle(G)
    assert got.invariant_factors == want.invariant_factors
    assert np.array_equal(got._coords, want._coords)
    rng = random.Random(f"h2-oracle:{name}:{form}")
    chains = [torus_cycle(G, a, b) for a in range(1, G.order)
              for b in range(1, G.order) if G.mul[a][b] == G.mul[b][a]]
    chains += _closed_chains(G, rng)
    for chain in chains:
        assert got.cycle_class(chain) == want.cycle_class(chain)
    K = len(got._coords)
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


def test_d2_d3_check_covers_non_generator_columns(monkeypatch):
    # corrupt d3[1|1|z] for a z outside the generators: only the check
    # over all columns can see it
    G = build_group(GROUP_SPECS["s3"])
    z = next(z for z in range(1, G.order) if z not in G.generators)
    col = z - 1  # [1|1|z] in lexicographic order
    d3_sparse = homology._d3_sparse

    def corrupted(G):
        idx, coeff = d3_sparse(G)
        coeff = coeff.copy()
        coeff[col, 0] = -coeff[col, 0]  # the [y|z] term
        return idx, coeff

    monkeypatch.setattr(homology, "_d3_sparse", corrupted)
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    with pytest.raises(HomologyError, match="d2 . d3"):
        h2_group(G)


def test_d2_d3_check_covers_the_last_chunk(monkeypatch):
    # the check runs _D3_CHUNK columns at a time: corrupt d3[m|m|m], the
    # last of S4's 23^3 columns
    G = build_group(GROUP_SPECS["s4"])
    assert (G.order - 1) ** 3 > homology._D3_CHUNK
    d3_sparse = homology._d3_sparse

    def corrupted(G):
        idx, coeff = d3_sparse(G)
        coeff = coeff.copy()
        coeff[-1, 0] = -coeff[-1, 0]  # the [y|z] term
        return idx, coeff

    monkeypatch.setattr(homology, "_d3_sparse", corrupted)
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    with pytest.raises(HomologyError, match="d2 . d3"):
        h2_group(G)
