"""h2_group (Hopf's formula) against the bar complex of h2_oracle, as maps
from bar 2-cycles, on the spec generators of every test group and on
relabelled generating sequences."""

import random

import pytest

from schur_orbits import homology
from schur_orbits.groups import FiniteGroup, _closure_and_bfs_order, build_group
from schur_orbits.homology import h2_group

from conftest import GROUP_SPECS
from h2_oracle import class_graph, h2_oracle, torus_cycle, unbranched_cycle


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


def _chains(G, name, form):
    """Every torus cycle of a commuting pair, and polygon chains of closed
    genus-2 tuples."""
    rng = random.Random(f"h2-oracle:{name}:{form}")
    chains = [torus_cycle(G, a, b) for a in range(1, G.order)
              for b in range(1, G.order) if G.mul[a][b] == G.mul[b][a]]
    return chains + _closed_chains(G, rng)


def _graph(got, want, chains):
    """The subgroup of got x want that the pairs (got class, want class)
    of the chains generate, with its two projections."""
    return class_graph(got.presentation, want.presentation,
                       [(got.cycle_class(c), want.cycle_class(c))
                        for c in chains])


@pytest.mark.parametrize("name,form", CASES)
def test_h2_group_matches_direct_route(name, form):
    # the bar class -> Hopf class map is a well-defined bijection: the
    # pairs of classes of the chains generate the graph of an isomorphism
    # H2 -> H2, of order |H2| with both projections onto
    G = _group(name, form)
    got, want = h2_group(G), h2_oracle(G)
    assert got.invariant_factors == want.invariant_factors
    graph, image, preimage = _graph(got, want, _chains(G, name, form))
    order = got.presentation.order()
    assert len(graph) == len(image) == len(preimage) == order


# Generating sequences (the identity, the spec generators and the element
# of this BFS index) with one table: h2_group takes its free generators
# from the table alone, so both give one presentation and one cocycle.
BASIS_CASES = [("z2^4", 15), ("z4z4", 14)]


@pytest.mark.parametrize("name,extra", BASIS_CASES)
def test_h2_basis_does_not_depend_on_the_generators_given(name, extra,
                                                           monkeypatch):
    G = build_group(GROUP_SPECS[name])
    G2 = FiniteGroup(G.order, G.mul, G.inv, G.class_of, G.class_reps,
                     (0, *G.generators, extra), G.perms)
    assert G2.digest == G.digest and G2.generators != G.generators
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    got = h2_group(G)
    monkeypatch.setattr(homology, "_H2_CACHE", {})
    got2 = h2_group(G2)
    assert got2 is not got and got2.presentation == got.presentation
    for chain in _chains(G, name, "spec"):
        assert got2.cycle_class(chain) == got.cycle_class(chain)
