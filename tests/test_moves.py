"""Move catalog soundness, invertibility, and orbit determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_orbits.covers import (
    BranchData,
    BranchedTuple,
    branch_data,
    enumerate_tuples,
    make_tuple,
)
from schur_orbits.homology import sch_unbranched
from schur_orbits.moves import (
    _MOVE_WORDS,
    Move,
    MoveError,
    _site_slots,
    apply_move,
    canonicalize,
    move_catalog,
    orbits,
)

from conftest import get_group, transposition_class

GRID = [(0, 3), (0, 6), (1, 2), (2, 1), (2, 2), (3, 0), (3, 6)]
GROUPS = ["s3", "d4", "a4", "s4"]

_INVERSE_KIND = {
    "Braid": "BraidInv", "BraidInv": "Braid",
    "TwistA": "TwistAInv", "TwistAInv": "TwistA",
    "TwistB": "TwistBInv", "TwistBInv": "TwistB",
    "ChainTwist": "ChainTwistInv", "ChainTwistInv": "ChainTwist",
}


def random_tuple(G, g, n, rng):
    for _ in range(500):
        handles = tuple((rng.randrange(G.order), rng.randrange(G.order))
                        for _ in range(g))
        p = 0
        for a, b in handles:
            p = G.mul[p][G.commutator(a, b)]
        letters = []
        for _ in range(max(0, n - 1)):
            w = rng.randrange(1, G.order)
            letters.append((w, rng.choice((1, -1))))
            p = G.mul[p][w]
        if n == 0:
            if p != 0:
                continue
        else:
            w_last = G.inv[p]
            if w_last == 0:
                continue
            letters.append((w_last, rng.choice((1, -1))))
        return make_tuple(G, g, handles, letters)
    return None


@pytest.mark.parametrize("name", GROUPS)
def test_move_soundness_random(name):
    G = get_group(name)
    rng = random.Random(hash(name) & 0xFFFF)
    applications = 0
    for g, n in GRID:
        cat = move_catalog(G, g, n)
        for _ in range(12):
            t = random_tuple(G, g, n, rng)
            if t is None:
                continue
            bd = branch_data(t)
            for m in cat:
                s = apply_move(m, t)
                assert s.relation_product() == 0
                assert branch_data(s) == bd
                applications += 1
    assert applications >= 1000


@pytest.mark.parametrize("name", GROUPS)
def test_move_inverses(name):
    G = get_group(name)
    rng = random.Random(1 + (hash(name) & 0xFFFF))
    for g, n in GRID:
        cat = move_catalog(G, g, n)
        for _ in range(6):
            t = random_tuple(G, g, n, rng)
            if t is None:
                continue
            for m in cat:
                inv = None
                if m.kind in _INVERSE_KIND:
                    inv = Move(_INVERSE_KIND[m.kind], m.index)
                elif m.kind == "GlobalConj":
                    inv = Move("GlobalConj", element=G.inv[m.element])
                if inv is None:
                    continue
                assert apply_move(inv, apply_move(m, t)) == t
                assert apply_move(m, apply_move(inv, t)) == t


@pytest.mark.parametrize("name,g,n", [("k4", 2, 0), ("s3", 1, 2), ("s3", 0, 4)])
def test_every_move_permutes_the_level(name, g, n):
    # invertibility of the conjugation-style moves (HandleSwap,
    # HandleBlockTwist, BoundaryBlockTwist) shows up as bijectivity on an
    # exhaustive level
    G = get_group(name)
    if n == 0:
        v = BranchData.from_dict({})
    else:
        tc = transposition_class(G)
        v = BranchData.from_dict({(tc, 1): n})
    level = enumerate_tuples(G, g, v, surjective=False)
    keys = {t.key() for t in level}
    for m in move_catalog(G, g, n):
        image = {apply_move(m, t).key() for t in level}
        assert image == keys, m.kind


def _word_move(m, t):
    """m applied to t by reading its _MOVE_WORDS row token by token with
    G.mul and G.inv, the site names bound to slots by _site_slots."""
    G, g = t.group, t.genus
    site, words, signs = _MOVE_WORDS[m.kind]
    old, old_signs = t.letters(), [o for _, o in t.punctures]
    new, new_signs = list(old), list(old_signs)
    for names in _site_slots(site, m.index, g, t.n):
        env = {name: old[slot] for name, slot in names.items()}
        env["x"] = m.element
        for name, text in words.items():
            p = 0
            for tok in text.split():
                p = G.mul[p][G.inv[env[tok[:-1]]] if tok.endswith("'")
                             else env[tok]]
            if name in names:
                new[names[name]] = p  # later words still read the old letter
            else:
                env[name] = p
        for dst, src in signs.items():
            new_signs[names[dst] - 2 * g] = old_signs[names[src] - 2 * g]
    return BranchedTuple(G, g, tuple(zip(new[0:2 * g:2], new[1:2 * g:2])),
                         tuple(zip(new[2 * g:], new_signs)))


@pytest.mark.parametrize("name", ["s3", "q8", "a4", "s4"])
@pytest.mark.parametrize("g,n", [(3, 3), (2, 4), (1, 1)])
def test_move_plan_agrees_with_the_move_words(name, g, n):
    # letters and signs at random, relation or not: both act letterwise
    G = get_group(name)
    rng = random.Random(f"{name}:{g}:{n}")
    cat = move_catalog(G, g, n)
    if (g, n) == (3, 3):
        assert {m.kind for m in cat} == set(_MOVE_WORDS)
    for _ in range(20):
        t = BranchedTuple(
            G, g, tuple((rng.randrange(G.order), rng.randrange(G.order))
                        for _ in range(g)),
            tuple((rng.randrange(G.order), rng.choice((1, -1)))
                  for _ in range(n)))
        for m in cat:
            assert apply_move(m, t) == _word_move(m, t), m


def test_braid_moves_signs_with_letters(s3):
    tc = transposition_class(s3)
    a = s3.class_reps[tc]
    t = make_tuple(s3, 1, [(0, 1)], [(a, -1), (s3.inv[a], 1)])
    s = apply_move(Move("Braid", 0), t)
    # the first slot now carries the old second letter (conjugated), with
    # its own sign; the second slot carries the old first letter and sign
    assert s.punctures[1] == (a, -1)
    assert s.punctures[0][1] == 1
    assert branch_data(s) == branch_data(t)


def test_chain_twist_mixes_abelian_handles(k4):
    # without the chain twist no catalog move changes the unordered pair
    # of handle contents for an abelian group
    t = make_tuple(k4, 2, [(1, 1), (2, 2)], [])
    s = apply_move(Move("ChainTwist", 0), t)
    assert s.relation_product() == 0
    assert {t.handles[0], t.handles[1]} != {s.handles[0], s.handles[1]}


def test_k4_genus2_needs_chain_twist(k4):
    level = enumerate_tuples(k4, 2, BranchData.from_dict({}), surjective=True)
    full = orbits(level, move_catalog(k4, 2, 0))
    assert full.num_orbits == 2
    reduced_cat = [m for m in move_catalog(k4, 2, 0)
                   if not m.kind.startswith("ChainTwist")]
    reduced = orbits(level, reduced_cat)
    assert reduced.num_orbits > full.num_orbits


def test_subcatalog_monotonicity(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    level = enumerate_tuples(s3, 0, v)
    cat = move_catalog(s3, 0, 4)
    full = orbits(level, cat)
    sub = orbits(level, [m for m in cat if m.kind != "Braid"])
    assert sub.num_orbits >= full.num_orbits


def test_orbits_deterministic_across_threads(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    level = enumerate_tuples(s3, 0, v)
    cat = move_catalog(s3, 0, 4)
    t1 = orbits(level, cat)
    shuffled = list(level)
    random.Random(7).shuffle(shuffled)
    t_s = orbits(shuffled, cat)
    assert t_s.to_json() == t1.to_json()


def test_orbits_counts_multiplicity(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    level = enumerate_tuples(s3, 0, v)
    tab = orbits(level + level, move_catalog(s3, 0, 4))
    assert sum(tab.sizes) == 2 * len(level)


def test_orbits_rejects_non_closed_input(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    level = enumerate_tuples(s3, 0, v)
    with pytest.raises(MoveError):
        orbits(level[:3], move_catalog(s3, 0, 4))


def test_canonicalize_idempotent_and_conj_invariant(s3, s4):
    rng = random.Random(9)
    for G in (s3, s4):
        for g, n in [(1, 2), (2, 0)]:
            t = random_tuple(G, g, n, rng)
            if t is None:
                continue
            c = canonicalize(t)
            assert canonicalize(c) == c
            for x in range(1, G.order):
                s = apply_move(Move("GlobalConj", element=x), t)
                assert canonicalize(s) == c


@st.composite
def letter_tuples(draw):
    """A tuple of letters and signs over a small group, on the surface
    relation or not: the moves act letterwise."""
    G = get_group(draw(st.sampled_from(["s3", "k4", "q8", "a4", "s4"])))
    g, n = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    letter = st.integers(0, G.order - 1)
    handles = draw(st.lists(st.tuples(letter, letter), min_size=g, max_size=g))
    punctures = draw(st.lists(st.tuples(letter, st.sampled_from([1, -1])),
                              min_size=n, max_size=n))
    return BranchedTuple(G, g, tuple(handles), tuple(punctures))


@settings(max_examples=80, deadline=None, database=None)
@given(letter_tuples())
def test_apply_move_gives_python_ints_and_canonicalize_the_least_conjugate(t):
    # a numpy scalar in a tuple would not serialize into a JSON report
    G = t.group
    for m in move_catalog(G, t.genus, t.n):
        s = apply_move(m, t)
        assert all(type(x) is int
                   for x in s.letters() + [o for _, o in s.punctures]), m
    assert canonicalize(t) == min(
        _word_move(Move("GlobalConj", element=x), t) for x in range(G.order))


@pytest.mark.parametrize("name", ["s3", "k4", "q8"])
def test_sch_invariant_under_moves(name):
    G = get_group(name)
    rng = random.Random(11)
    level = enumerate_tuples(G, 2, BranchData.from_dict({}), surjective=False)
    sample = rng.sample(level, min(25, len(level)))
    cat = move_catalog(G, 2, 0)
    count = 0
    for t in sample:
        base = sch_unbranched(G, t.handles)
        for m in cat:
            s = apply_move(m, t)
            assert sch_unbranched(G, s.handles) == base
            count += 1
    assert count >= 100


def _union_find_orbits(level, cat):
    """Reference orbits of a level: union-find over its apply_move edges,
    with no search order and no canonical forms.  Returns (least tuple,
    size, members) per orbit, sorted."""
    index = {t.key(): i for i, t in enumerate(level)}
    parent = list(range(len(level)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, t in enumerate(level):
        for m in cat:
            a, b = find(i), find(index[apply_move(m, t).key()])
            parent[max(a, b)] = min(a, b)
    classes = {}
    for i, t in enumerate(level):
        classes.setdefault(find(i), []).append(t)
    return sorted((min(c), len(c), c) for c in classes.values())


# branch data as ((sign, count), ...) of the class of element 1: a
# transposition in s3 and s4, a 3-cycle "c" in a4; one s3 transposition
# alone has no tuples, so that level is the empty input
@pytest.mark.parametrize("name,g,branch", [
    ("s3", 1, ((1, 6),)),
    ("a4", 0, ((1, 3), (-1, 3))),
    ("s4", 0, ((1, 6),)),
    ("s3", 0, ((1, 1),)),
])
def test_orbits_match_union_find(name, g, branch):
    G = get_group(name)
    v = BranchData.from_dict({(G.class_of[1], o): k for o, k in branch})
    level = enumerate_tuples(G, g, v)
    cat = move_catalog(G, g, v.cardinality)
    tab = orbits(level, cat)
    ref = _union_find_orbits(level, cat)
    assert tab.representatives == tuple(r for r, _, _ in ref)
    assert tab.sizes == tuple(k for _, k, _ in ref)
    conj = [Move("GlobalConj", element=x) for x in range(1, G.order)]
    for i, (_, _, members) in enumerate(ref):
        for t in members:
            assert tab.orbit_id(t) == i
            for m in conj:
                assert tab.orbit_id(apply_move(m, t)) == i
    if not level:
        assert tab.to_json()["orbits"] == [] and tab.orbit_of == {}
