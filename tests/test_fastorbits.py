"""The vectorized level engine, closed and punctured, against the
move words read directly, the hash-BFS orbit engine and the Python
enumeration walk."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from schur_orbits import cli, fastorbits
from schur_orbits.covers import (
    BranchData,
    BranchedTuple,
    BudgetError,
    enumerate_tuples,
    is_surjective,
)
from schur_orbits.fastorbits import (
    _Codes,
    _handle_orbits,
    _moved,
    _prefix_count,
    _site_moves,
    _spans,
    _sweep,
    _transitions,
    build_level,
    closed_orbit_scan,
    level_orbits,
)
from schur_orbits.groups import build_group, closure
from schur_orbits.moves import (
    Move,
    MovePlan,
    apply_move,
    move_catalog,
    move_plan,
    orbits,
    plan_evaluator,
)

from conftest import GROUP_SPECS, cyclic, get_group, transposition_class
from enumeration_oracle import oracle_enumerate, walked_prefixes
from level_count_oracle import level_count
from move_oracle import moved_level, removed_moves, word_move


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
        out, out_signs = plan_evaluator(G, move_plan(m, g, n), columns=True)(
            cols, signs)
        for row, (s, o) in enumerate(states):
            t = BranchedTuple(G, g, tuple(zip(s[:L:2], s[1:L:2])),
                              tuple(zip(s[L:], o)))
            moved = word_move(m, t)
            assert [int(c[row]) for c in out] == moved.letters(), m
            assert [int(c[row]) for c in out_signs] == \
                [o for _, o in moved.punctures], m


def _code_space(G, g):
    """Every closed genus-g tuple of letters, on the level or not: one
    per code of the q^{2g} code space, in code order."""
    q = G.order
    for code in range(q ** (2 * g)):
        letters = [code // q ** k % q for k in reversed(range(2 * g))]
        yield BranchedTuple(G, g, tuple(zip(letters[0::2], letters[1::2])), ())


def _assert_same_ids(fast, ref, G, g):
    """fast gives every code of the closed genus-g code space the orbit
    id that ref gives it, and raises KeyError on every code that ref
    does not hold (off the level)."""
    on, want = [], []
    for t in _code_space(G, g):
        try:
            want.append(ref.orbit_id(t))
        except KeyError:
            with pytest.raises(KeyError):
                fast.orbit_id(t)
        else:
            on.append(t)
    assert fast.orbit_ids(on) == want


@pytest.mark.parametrize("name", ["k4", "s3", "d4", "q8", "a4"])
def test_closed_scan_matches_hash_bfs(name):
    G = get_group(name)
    cat = move_catalog(G, 2, 0)
    fast, n_tuples = closed_orbit_scan(G, 2)
    level = oracle_enumerate(G, 2, BranchData.from_dict({}))
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert fast.orbit_ids(level) == slow.orbit_ids(level)
    _assert_same_ids(fast, slow, G, 2)


def test_closed_scan_relabelled_generators():
    # A4 from another generating pair: a different element numbering,
    # so different codes, level order and representatives
    G = build_group({"permutations": [[2, 3, 0, 1], [0, 3, 1, 2]]})
    assert G.order == 12 and G.mul != get_group("a4").mul
    cat = move_catalog(G, 2, 0)
    fast, n_tuples = closed_orbit_scan(G, 2)
    level = oracle_enumerate(G, 2, BranchData.from_dict({}))
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    _assert_same_ids(fast, slow, G, 2)


@st.composite
def code_sets(draw):
    """(code space, sorted distinct level codes, probe codes): spaces of
    1 to 5,000 codes, levels from empty to full, dense enough for the
    rank directory or sparse enough for np.searchsorted, with 0 and
    space - 1 on or off the level, and probes on and off it."""
    space = draw(st.integers(1, 5000))
    code = st.integers(0, space - 1)
    level = draw(st.sets(code, max_size=min(space, 300)))
    level |= {c for c in (0, space - 1) if draw(st.booleans())}
    probes = draw(st.lists(code, max_size=40)) + [0, space - 1]
    return space, np.array(sorted(level), dtype=np.int64), probes


@settings(max_examples=300, deadline=None, database=None)
@given(code_sets())
@example((1, np.zeros(0, dtype=np.int64), [0]))
@example((1, np.zeros(1, dtype=np.int64), [0]))
@example((64, np.arange(64, dtype=np.int64), [31, 32, 63]))
@example((5000, np.array([0, 4999], dtype=np.int64), [1, 4998]))
@example((4096, np.arange(0, 4096, 16, dtype=np.int64), [4095]))
def test_positions_match_searchsorted(case):
    space, level, probes = case
    index = fastorbits._Positions(level, space)
    assert (index.bits is not None) == (16 * -(-space // 32) <= 8 * level.size)
    members = set(level.tolist())
    on = np.array([c for c in probes if c in members] + level.tolist(),
                  dtype=np.int64)
    np.testing.assert_array_equal(index(on), np.searchsorted(level, on))
    for c in sorted(set(probes) - members):
        with pytest.raises(fastorbits.MoveError, match="not move-closed"):
            index(np.append(on, c))


def _force_lookup(monkeypatch, lookup):
    """Make every level's _Positions take the rank directory ("index") or
    np.searchsorted ("searchsorted"), whatever its density."""
    monkeypatch.setattr(fastorbits._Positions, "fits",
                        staticmethod(lambda n, space: lookup == "index"))


# the chunk splits the transition tables' key blocks and the expansion
# of the level into tuples; chunks 1 and 7 also split the builder's
# label prefixes and the sweep's frontiers.  lookup forces the level
# positions to one side (_force_lookup); the rank-directory cases carry
# no suffix in their ids.
@pytest.mark.parametrize("name,g,chunk,lookup", [
    pytest.param(*case, lookup, id="-".join(
        map(str, case + (() if lookup == "index" else (lookup,)))))
    for case in [("a4", 2, 1000), ("s3", 3, 4097), ("z70", 1, 999),
                 ("d4", 2, 7), ("d4", 3, 1000), ("k4", 3, 1)]
    for lookup in ("index", "searchsorted")])
def test_filter_chunking_does_not_change_the_table(name, g, chunk, lookup,
                                                   monkeypatch):
    _force_lookup(monkeypatch, lookup)
    G = cyclic(70) if name == "z70" else get_group(name)
    assert chunk == 1 or G.order ** (2 * g) % chunk
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", G.order ** (2 * g))
    whole, n_whole = closed_orbit_scan(G, g)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", chunk)
    chunked, n_chunked = closed_orbit_scan(G, g)
    assert n_chunked == n_whole
    assert chunked.to_json() == whole.to_json()
    assert chunked.sizes == whole.sizes
    level = enumerate_tuples(G, g, BranchData(()))
    assert len(level) == n_whole
    assert chunked.orbit_ids(level) == whole.orbit_ids(level)
    off = BranchedTuple(G, g, ((0, 0),) * g, ())  # generates only 1
    for table in (whole, chunked):
        with pytest.raises(KeyError):
            table.orbit_id(off)


def test_closed_scan_group_over_64_elements():
    # element indices >= 64 used to fall out of a one-word letter mask,
    # so surjective tuples were dropped and the scan failed its
    # move-closure check
    G = cyclic(70)
    cat = move_catalog(G, 1, 0)
    fast, n_tuples = closed_orbit_scan(G, 1)
    level = oracle_enumerate(G, 1, BranchData.from_dict({}))
    slow = orbits(level, cat)
    assert n_tuples == len(level) == 3456
    assert fast.to_json() == slow.to_json()
    _assert_same_ids(fast, slow, G, 1)


def test_closed_level_cap_is_a_budget_error(s3):
    # S3 g=2 walks its 7 handle-orbit labels for the first handle
    assert closed_orbit_scan(s3, 2, 7)[1] == 360
    with pytest.raises(BudgetError, match="budget 6 exhausted"):
        closed_orbit_scan(s3, 2, 6)


def test_closed_levels_under_the_old_cap_fit_the_default_budget():
    # closed levels ran up to q^{2g} = 2^28 codes before the budget
    # counted label prefixes; none of them is over the default budget
    budget = cli.DEFAULT_BUDGET
    counts = {}
    for name in GROUP_SPECS:
        G = get_group(name)
        g = 0
        while G.order ** (2 * g) <= 1 << 28:
            counts[name, g] = _prefix_count(G, g, BranchData(()))
            g += 1
    assert max(counts.values()) == counts["k4", 7] == 5 ** 6 <= budget


@pytest.mark.parametrize("name,n_tuples", [("s3", 0), ("z1", 1)])
def test_genus_zero_closed_level(name, n_tuples):
    # the empty tuple, surjective only onto the trivial group
    G = cyclic(1) if name == "z1" else get_group(name)
    table, n = closed_orbit_scan(G, 0)
    assert n == n_tuples
    assert table.representatives == (BranchedTuple(G, 0, (), ()),) * n_tuples
    assert table.sizes == (1,) * n_tuples
    empty = BranchedTuple(G, 0, (), ())  # the one code of the code space
    if n_tuples:
        assert table.orbit_id(empty) == 0
    else:
        with pytest.raises(KeyError):
            table.orbit_id(empty)


def test_orbit_id_rejects_letters_outside_the_group(k4, s3):
    # 0 * 4 + 6 = 1 * 4 + 2: an unchecked handle letter 6 would alias
    # the code of ((1, 2), (0, 0))
    closed, _ = closed_orbit_scan(k4, 2)
    assert closed.orbit_id(BranchedTuple(k4, 2, ((1, 2), (0, 0)), ())) == 0
    for handles in (((0, 6), (0, 0)), ((-1, 2), (0, 0))):
        with pytest.raises(KeyError):
            closed.orbit_id(BranchedTuple(k4, 2, handles, ()))
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    punctured, _ = level_orbits(s3, 0, v)
    rep = punctured.representatives[0]
    for bad in ((7, 1), (6, -1), (12, 1), (-5, 1), (rep.punctures[0][0], 2)):
        with pytest.raises(KeyError):
            punctured.orbit_id(BranchedTuple(s3, 0, (), (bad,) + rep.punctures[1:]))


def test_closed_orbit_id_rejects_other_levels(k4):
    table, _ = closed_orbit_scan(k4, 2)
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
    assume(v.cardinality <= 5 and walked_prefixes(G, g, v) <= 3000)
    return G, g, v


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(punctured_levels())
def test_punctured_scan_matches_hash_bfs(case):
    G, g, v = case
    cat = move_catalog(G, g, v.cardinality)
    fast, n_tuples = level_orbits(G, g, v)
    level = oracle_enumerate(G, g, v)
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert fast.sizes == slow.sizes
    assert fast.orbit_ids(level) == slow.orbit_ids(level)
    members = fast.members()
    assert sum(map(len, members.values())) == fast.level.size
    assert [ts[0] for ts in members.values()] == list(fast.representatives)
    assert fast.orbit_ids([t for ts in members.values() for t in ts]) == \
        [i for i, ts in members.items() for _ in ts]


def test_punctured_scan_signed_level(a4):
    # A4 "3 c, 3 c -": two slot kinds of one class, opposite signs
    c = a4.class_of[1]
    v = BranchData.from_dict({(c, 1): 2, (c, -1): 2})
    cat = move_catalog(a4, 0, 4)
    fast, n_tuples = level_orbits(a4, 0, v)
    slow = orbits(oracle_enumerate(a4, 0, v), cat)
    assert n_tuples == sum(slow.sizes) > 0
    assert fast.to_json() == slow.to_json()


@pytest.mark.parametrize("lookup", ["index", "searchsorted"])
def test_punctured_chunking_does_not_change_the_table(s3, lookup,
                                                      monkeypatch):
    _force_lookup(monkeypatch, lookup)
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4, (tc, -1): 2})
    whole, n_whole = level_orbits(s3, 0, v)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", 7)
    chunked, n_chunked = level_orbits(s3, 0, v)
    assert n_chunked == n_whole
    assert chunked.to_json() == whole.to_json()
    np.testing.assert_array_equal(chunked.ids, whole.ids)
    np.testing.assert_array_equal(chunked.level, whole.level)


def test_s4_eight_transpositions_is_one_orbit(s4):
    # 131,040 tuples in one orbit: the hash engine took ~15 s on it
    tc = transposition_class(s4)
    v = BranchData.from_dict({(tc, 1): 8})
    table, n_tuples = level_orbits(s4, 0, v)
    assert n_tuples == 131040
    assert table.num_orbits == 1 and table.sizes == (131040,)


def test_genus_zero_level_whose_pools_do_not_generate_is_not_built(
        s4, monkeypatch):
    # 14,763 tuples of 10 double transpositions, all in the Klein four
    # subgroup; the budget is still checked first
    dt = next(c for c, x in enumerate(s4.class_reps)
              if s4.element_order(x) == 2 and len(s4.class_members(c)) == 3)
    v = BranchData.from_dict({(dt, 1): 10})

    def no_build(*args, **kwargs):
        raise AssertionError("built a level with no surjective tuple")

    monkeypatch.setattr(fastorbits, "build_level", no_build)
    table, n = level_orbits(s4, 0, v)
    assert (n, table.num_orbits, table.level.size) == (0, 0, 0)
    assert enumerate_tuples(s4, 0, v) == []
    with pytest.raises(KeyError):
        table.orbit_id(BranchedTuple(s4, 0, (), ((s4.class_reps[dt], 1),) * 10))
    with pytest.raises(BudgetError):
        level_orbits(s4, 0, v, budget=_prefix_count(s4, 0, v) - 1)


def test_code_space_overflow_is_a_budget_error_before_allocation(monkeypatch):
    G = cyclic(3)
    # 63 central punctures: only 63 prefixes, but 2^63 codes
    v = BranchData.from_dict({(G.class_of[1], 1): 62, (G.class_of[2], 1): 1})
    assert walked_prefixes(G, 0, v) == 63

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the overflow check")

    monkeypatch.setattr(fastorbits.np, "arange", no_alloc)
    with pytest.raises(BudgetError, match="budget 62 exhausted"):
        build_level(G, 0, v, budget=62)
    with pytest.raises(BudgetError, match="code space .* overflows int64"):
        build_level(G, 0, v, budget=63)
    with pytest.raises(BudgetError, match="code space"):
        enumerate_tuples(G, 0, v)


def test_punctured_orbit_id_rejects_other_tuples(s3):
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 4})
    table, _ = level_orbits(s3, 0, v)
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
    with pytest.raises(fastorbits.MoveError, match="not move-closed"):
        _sweep(codes, level[:1], move_catalog(s3, 0, 4))


@pytest.mark.parametrize("slot", [0, 3])
def test_move_off_the_alphabet_is_a_move_error(s3, slot, monkeypatch):
    # a plan that writes the identity into one puncture slot, the first
    # or the last: the sweep re-ranks only that slot, and must still
    # find the pair outside the level's alphabet.  Braid's site plan is
    # replaced, at the puncture pair that holds the slot, in a memo of
    # this test's own; the failed fill leaves no table behind
    tc = transposition_class(s3)
    v = BranchData.from_dict({(tc, 1): 2, (tc, -1): 2})
    codes, level = build_level(s3, 0, v)
    index = min(slot, 2)
    local = slot - index
    bad = MovePlan(2, 0, ((local, ~local),), ((local, 3),), ())
    monkeypatch.setattr(fastorbits, "move_plan", lambda *args: bad)
    monkeypatch.setitem(s3.cache, "site tables", {})
    with pytest.raises(fastorbits.MoveError, match="alphabet"):
        _sweep(codes, level, [Move("Braid", index)])
    assert not s3.cache["site tables"][
        ("Braid", 0, 0, 2, codes.alphabet)].done.any()


@st.composite
def sweep_levels(draw):
    """(group, genus, branch data) of a small closed (genus 1-2) or
    punctured level."""
    G = get_group(draw(st.sampled_from(["s3", "k4", "d4", "q8", "a4"])))
    if draw(st.booleans()):
        g = draw(st.integers(1, 2))
        assume(G.order ** (2 * g) <= 5000)
        return G, g, BranchData(())
    return draw(punctured_levels())


def _assert_removed_moves_stay_in_orbits(G, g, v):
    """Each move the catalog does not list (move_oracle.removed_moves),
    applied to every tuple of the surjective genus-g level with branch
    data v, keeps the tuple's catalog orbit; returns the level's size."""
    table, n_tuples = level_orbits(G, g, v, None)
    level = enumerate_tuples(G, g, v)
    assert len(level) == n_tuples
    if level:
        ids = table.orbit_ids(level)
        for m in removed_moves(g, v.cardinality):
            assert table.orbit_ids(moved_level(G, g, m, level)) == ids, m
    return n_tuples


@pytest.mark.parametrize("name,g,k", [
    ("s3", 2, 0), ("k4", 2, 0), ("d4", 2, 0), ("q8", 2, 0), ("a4", 2, 0),
    ("s3", 2, 2), ("s3", 1, 4)])
def test_removed_moves_stay_in_catalog_orbits_on_whole_levels(name, g, k):
    # k transpositions of s3; the closed levels have k = 0
    G = get_group(name)
    v = BranchData.from_dict({(transposition_class(G), 1): k} if k else {})
    assert _assert_removed_moves_stay_in_orbits(G, g, v) > 0


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sweep_levels())
@example((get_group("s3"), 2, BranchData(())))
def test_removed_moves_stay_in_catalog_orbits(case):
    _assert_removed_moves_stay_in_orbits(*case)


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_forward_moves_keep_no_central_conjugation(name):
    # the catalog lists forward moves only: GlobalConj by each generator
    # once up to inverse, and by none whose conjugacy class has size 1
    G = get_group(name)
    centre = {x for x in range(G.order)
              if all(G.mul[x][y] == G.mul[y][x] for y in range(G.order))}
    kept = [m.element for m in move_catalog(G, 1, 2) if m.kind == "GlobalConj"]
    assert not set(kept) & centre
    assert len({frozenset((x, G.inv[x])) for x in kept}) == len(kept)
    # each other generator keeps its GlobalConj, or its inverse's
    assert set(G.generators) - centre <= set(kept) | {G.inv[x] for x in kept}


def _table_group(G):
    """G rebuilt from its own multiplication table, as a Cayley table:
    the same numbering, the greedy generators."""
    return build_group({"cayley_table": [list(row) for row in G.mul]})


def _closed_and_punctured_levels(G):
    """Genus 1 closed, and genus 1 with the punctures (x, +1), (x, -1)
    for x the last class representative."""
    c = G.class_of[G.class_reps[-1]]
    return [(1, BranchData(())),
            (1, BranchData.from_dict({(c, 1): 1, (c, -1): 1}))]


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_a_table_group_has_the_orbits_of_its_source(name):
    G = get_group(name)
    T = _table_group(G)
    for g, v in _closed_and_punctured_levels(G):
        assert (level_orbits(T, g, v, None)[0].to_json()
                == level_orbits(G, g, v, None)[0].to_json())


@pytest.mark.parametrize("name", ["k4", "z4z4", "q8"])
def test_a_table_group_has_the_full_catalog_orbits(name):
    T = _table_group(get_group(name))
    for g, v in _closed_and_punctured_levels(T):
        slow = orbits(oracle_enumerate(T, g, v),
                      move_catalog(T, g, v.cardinality))
        assert level_orbits(T, g, v, None)[0].to_json() == slow.to_json()


@pytest.mark.parametrize("name,g", [("k4", 3), ("s3", 3), ("a4", 2),
                                    ("k4", 1), ("s3", 0)])
def test_closed_budget_counts_the_handle_prefixes(name, g):
    # the builder walks the K^{g-1} label prefixes of the last handle (K
    # handle orbits), and at genus 0 the empty prefix
    G = get_group(name)
    v = BranchData(())
    budget = walked_prefixes(G, g, v)
    assert budget == (_handle_orbits(G).size.size ** (g - 1) if g else 1)
    codes, level = build_level(G, g, v, budget=budget)
    assert codes.weight(level).sum() == level_count(G, g, v, False)
    assert closed_orbit_scan(G, g, budget)[1] == level_count(G, g, v, True)
    with pytest.raises(BudgetError, match=f"budget {budget - 1} exhausted$"):
        build_level(G, g, v, budget=budget - 1)
    with pytest.raises(BudgetError, match=f"budget {budget - 1} exhausted$"):
        closed_orbit_scan(G, g, budget - 1)


@st.composite
def oracle_levels(draw):
    """(group, genus, branch data) of a small level: closed at genus 0-3
    with at most 50,000 codes, or genus 1 with 1-3 punctures."""
    G = get_group(draw(st.sampled_from(["k4", "s3", "d4", "q8", "a4"])))
    if draw(st.booleans()):
        g = draw(st.integers(0, 3))
        assume(G.order ** (2 * g) <= 50_000)
        return G, g, BranchData(())
    classes = [c for c, r in enumerate(G.class_reps) if r != 0]
    kinds = draw(st.lists(st.tuples(st.sampled_from(classes),
                                    st.sampled_from([1, -1])),
                          min_size=1, max_size=3))
    d = {}
    for kind in kinds:
        d[kind] = d.get(kind, 0) + 1
    return G, 1, BranchData.from_dict(d)


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(oracle_levels())
@example((get_group("s3"), 3, BranchData(())))
@example((get_group("a4"), 1, BranchData.from_dict({(1, 1): 1, (2, -1): 2})))
def test_class_engine_matches_hash_bfs(case):
    G, g, v = case
    cat = move_catalog(G, g, v.cardinality)
    fast, n_tuples = level_orbits(G, g, v)
    level = oracle_enumerate(G, g, v)
    slow = orbits(level, cat)
    assert n_tuples == len(level)
    assert fast.to_json() == slow.to_json()
    assert fast.orbit_ids(level) == slow.orbit_ids(level)
    least = {}  # node code -> the node's least tuple
    for t in sorted(level):
        least.setdefault(int(fast.codes.codes_of([t])[0]), t)
    want = {i: [] for i in range(slow.num_orbits)}
    for t in sorted(least.values()):
        want[slow.orbit_id(t)].append(t)
    assert fast.members() == want


@pytest.mark.parametrize("name,k,pattern", [("d4", 2, "nnSnSSSSS"),
                                              ("s3", 4, "nSnSSSSS")])
def test_orbits_that_do_not_generate_are_dropped_and_renumbered(name, k,
                                                               pattern):
    # genus 1, k punctures in the class of element 1: on the whole level
    # of the relation, orbits that do not generate G (n) come before and
    # between the surjective ones (S), so every kept orbit is renumbered
    G = get_group(name)
    v = BranchData.from_dict({(G.class_of[1], 1): k})
    cat = move_catalog(G, 1, k)
    hom = enumerate_tuples(G, 1, v, surjective=False)
    whole = orbits(hom, cat)
    assert "".join("S" if is_surjective(t) else "n"
                   for t in whole.representatives) == pattern
    fast, n_tuples = level_orbits(G, 1, v)
    slow = orbits(oracle_enumerate(G, 1, v), cat)
    assert fast.to_json() == slow.to_json()
    assert n_tuples == sum(slow.sizes)
    for t in hom:
        if is_surjective(t):
            assert fast.orbit_id(t) == slow.orbit_id(t)
        else:
            with pytest.raises(KeyError):
                fast.orbit_id(t)
    assert [ts[0] for ts in fast.members().values()] == \
        list(slow.representatives)


def _handle_move_orbits(G):
    """Reference labels of the q^2 pairs: breadth first along the genus-1
    handle moves with apply_move, orbits numbered as met in code order."""
    q = G.order
    moves = [m for m in move_catalog(G, 1, 0) if m.kind != "GlobalConj"]
    label = {}
    for a in range(q):
        for b in range(q):
            if (a, b) in label:
                continue
            k = len(set(label.values()))
            label[a, b] = k
            frontier = [BranchedTuple(G, 1, ((a, b),), ())]
            while frontier:
                t = frontier.pop()
                for m in moves:
                    u = apply_move(m, t)
                    if u.handles[0] not in label:
                        label[u.handles[0]] = k
                        frontier.append(u)
    return [label[divmod(pair, q)] for pair in range(q * q)]


@pytest.mark.parametrize("name", ["k4", "s3", "d4", "q8", "a4", "s4"])
def test_handle_orbit_labels_are_numbered_by_least_pair(name):
    G = get_group(name)
    H = _handle_orbits(G)
    assert H.label.tolist() == _handle_move_orbits(G)
    assert (np.diff(H.least) > 0).all()
    for k, (lo, size) in enumerate(zip(H.start, H.size)):
        pairs = H.members[lo:lo + size]
        assert pairs[0] == H.least[k] and (np.diff(pairs) > 0).all()
        assert (H.label[pairs] == k).all()


@pytest.mark.parametrize("name", ["k4", "s3", "d4", "q8", "a4", "s4"])
def test_commutator_and_subgroup_are_constant_on_handle_orbits(name):
    G = get_group(name)
    q = G.order
    H = _handle_orbits(G)
    for pair, k in enumerate(H.label.tolist()):
        a, b = divmod(pair, q)
        la, lb = divmod(int(H.least[k]), q)
        assert G.commutator(a, b) == H.comm[k]
        assert closure(G, [a, b]) == closure(G, [la, lb])


@pytest.mark.parametrize("name", ["s3", "a4"])
def test_chain_twist_relation_is_the_brute_force_relation(name):
    # ChainTwist sends the tuples of one label pair to several label
    # pairs, so its table must come from every tuple, not the least one
    G = get_group(name)
    q = G.order
    codes = _Codes(G, 2, 0, ())
    H = codes.orbits
    K = H.size.size
    m = Move("ChainTwist", 0)
    # every label pair as a node of the genus-2 code space
    t = _transitions(codes, m, 0, 1, np.arange(K * K))
    space, start, delta, multi = t.space, t.start, t.delta, t.multi
    assert (codes.place[1], space) == (1, K * K)
    got = {(k, k + int(d)) for k in range(K * K)
           for d in delta[start[k]:start[k + 1]]}
    want = set()
    for p1 in range(q * q):
        for p2 in range(q * q):
            t = BranchedTuple(G, 2, (divmod(p1, q), divmod(p2, q)), ())
            (a1, b1), (a2, b2) = apply_move(m, t).handles
            want.add((int(H.label[p1]) * K + int(H.label[p2]),
                      int(H.label[a1 * q + b1]) * K + int(H.label[a2 * q + b2])))
    assert got == want
    assert len(got) == delta.size  # each target once, A4's key blocks split
    assert multi and np.diff(start).max() > 1


def test_moved_applies_every_site_after_a_relation(s3):
    # ChainTwist's table (several targets per key) followed by GlobalConj's
    # three handle sites, each target taken through all three
    codes, level = build_level(s3, 3, BranchData(()))
    sites = [site for m in (Move("ChainTwist", 0),
                            Move("GlobalConj", element=1))
             for site in _site_moves(codes, m, level)]
    assert [site[-1] for site in sites] == [True, False, False, False]
    nodes = level[::5]  # not conjugation-closed, unlike the whole level
    want = []
    for code in nodes.tolist():
        reached = [code]
        for place, space, start, delta, _ in sites:
            reached = [c + int(d) for c in reached for d in delta[
                start[c // place % space]:start[c // place % space + 1]]]
        want += reached
    got = np.concatenate(list(_moved(nodes, sites)))
    assert sorted(got.tolist()) == sorted(want)


def _rows(table, keys):
    """The targets of each of keys in a _SiteTable, in key units."""
    return [sorted((k + table.delta[table.start[k]:table.start[k + 1]]).tolist())
            for k in keys.tolist()]


def _record(mp, owner, name):
    """Wrap owner.name so that each call appends its arguments to the
    list returned."""
    calls, f = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return f(*args)

    mp.setattr(owner, name, wrapper)
    return calls


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sweep_levels())
@example((get_group("s3"), 2, BranchData(())))
@example((get_group("a4"), 1, BranchData.from_dict({(1, 1): 1, (2, -1): 2})))
def test_every_table_the_sweep_uses_is_its_sites_own(case):
    # tables are shared across sites and kept across levels (the groups
    # are shared by every example), so each one the sweep reads must
    # give the level's keys at that site the rows of a table built for
    # that site alone, from an empty memo
    G, g, v = case
    codes, level = build_level(G, g, v)
    assume(level.size)
    moves = move_catalog(G, g, codes.n)
    with pytest.MonkeyPatch.context() as mp:
        used = _record(mp, fastorbits, "_transitions")
        _sweep(codes, level, moves)
    assert [(m, lo, hi) for _, m, lo, hi, _ in used] == \
        [(m, lo, hi) for m in moves for lo, hi in _spans(m, g, codes.n)]
    shared = [_transitions(*args) for args in used]
    memo = G.cache.pop("site tables")
    try:
        for args, table in zip(used, shared):
            G.cache.pop("site tables", None)
            fresh = _transitions(*args)
            keys = np.flatnonzero(fresh.done)
            assert keys.size and table.done[keys].all()
            assert _rows(table, keys) == _rows(fresh, keys)
    finally:
        G.cache["site tables"] = memo


def _dataflow_sites(plan, g):
    """The node digit ranges (lo, hi) on which plan's move acts
    independently, read off the plan alone: each written letter or sign
    with the digits it is computed from, merged where they overlap.  The
    reference for the sites moves._site_slots declares."""
    def digit(slot):
        return slot // 2 if slot < 2 * g else slot - g

    reads = {plan.slots: set()}  # register -> the digits it is read from
    for k, word in enumerate(plan.steps):
        reads[plan.slots + 1 + k] = set().union(*(
            reads[r] if r >= plan.slots else {digit(r)}
            for r in (r if r >= 0 else ~r for r in word)))
    spans = [{digit(slot)} | reads.get(reg, {digit(reg)})
             for slot, reg in plan.writes]
    spans += [{g + j, g + src} for j, src in plan.signs]
    sites = []
    for lo, hi in sorted((min(d), max(d)) for d in spans):
        if sites and lo <= sites[-1][1]:
            lo, hi = sites[-1][0], max(hi, sites.pop()[1])
        sites.append((lo, hi))
    return sites


def _shifted_plan(plan, g, lo, hi):
    """plan on node digits lo..hi alone, its slots shifted onto them:
    (MovePlan, h, p) for genus-h, p-puncture tuples, the site's h handle
    digits and then its p puncture digits.  It keeps the writes and signs
    of the site's slots and the steps they read, renumbered in order.
    The reference for the plan a site table runs."""
    h = max(min(hi + 1, g) - lo, 0)
    p = hi + 1 - lo - h
    first, n, L = 2 * lo if lo < g else lo + g, 2 * h + p, plan.slots
    writes = [(slot, reg) for slot, reg in plan.writes
              if first <= slot < first + n]
    need, steps = {reg for _, reg in writes}, []
    for k, word in reversed(list(enumerate(plan.steps))):
        if L + 1 + k in need:
            need |= {r if r >= 0 else ~r for r in word}
            steps.append((L + 1 + k, word))
    steps.reverse()
    # the site's slots, then the point-push element, then its steps
    to = {r: r - first for r in range(first, first + n)}
    to[L] = n
    to.update((reg, n + 1 + k) for k, (reg, _) in enumerate(steps))
    j0 = max(lo, g) - g  # the site's first puncture
    return MovePlan(
        n, plan.element,
        tuple(tuple(to[r] if r >= 0 else ~to[~r] for r in word)
              for _, word in steps),
        tuple((to[slot], to[reg]) for slot, reg in writes),
        tuple((j - j0, src - j0) for j, src in plan.signs
              if lo <= g + j <= hi)), h, p


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("n", range(4))
def test_sites_and_site_plans_match_the_plan_dataflow(g, n, monkeypatch):
    # every swept kind at every site index, with three elements: the
    # declared sites are the plan's dataflow sites, each site table runs
    # the full plan shifted onto its site, and two sites share a table
    # exactly when their shifted plans and shapes are equal
    G = get_group("a4")
    monkeypatch.setitem(G.cache, "site tables", {})
    codes = _Codes(G, g, n, [(w, o) for w in range(1, G.order)
                             for o in (1, -1)])
    empty = np.zeros(0, dtype=np.int64)
    swept = [kind for kind in fastorbits._MOVE_WORDS
             if kind not in fastorbits._HANDLE_KINDS]
    tables = {}
    for kind in swept:
        for index in range(max(g, n) + 1):
            for element in (0, 1, 5):
                m = Move(kind, index, element)
                try:
                    plan = move_plan(m, g, n)
                except fastorbits.MoveError:
                    with pytest.raises(fastorbits.MoveError):
                        _spans(m, g, n)
                    continue
                assert _spans(m, g, n) == _dataflow_sites(plan, g), m
                for lo, hi in _spans(m, g, n):
                    table = _transitions(codes, m, lo, hi, empty)
                    shifted = _shifted_plan(plan, g, lo, hi)
                    assert (table.plan, table.codes.genus,
                            table.codes.n) == shifted, (m, lo, hi)
                    assert tables.setdefault(id(table), shifted) == shifted
    # equal shifted plans and shapes share one table
    assert len(set(tables.values())) == len(tables)


def test_a4_genus_3_builds_three_tables_for_its_eight_sites(monkeypatch):
    # ChainTwist at handles 0-1 and 1-2, and GlobalConj by two elements at
    # each of the 3 handles, share 3 tables
    G = build_group(GROUP_SPECS["a4"])  # a new group, so an empty memo
    sites = _record(monkeypatch, fastorbits, "_transitions")
    fills = _record(monkeypatch, fastorbits._SiteTable, "fill")
    table, n = closed_orbit_scan(G, 3)
    assert (n, table.num_orbits) == (742560, 2)
    assert (len(sites), len(fills), len(G.cache["site tables"])) == (8, 3, 3)


def test_closed_stable_range_builds_each_table_once(tmp_path, monkeypatch,
                                                    capsys):
    # K4 is abelian, so its genus-2 level holds every pair of handle
    # labels, and genus 3 and 4 reuse its tables whole
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(GROUP_SPECS["k4"]))
    sites = _record(monkeypatch, fastorbits, "_transitions")
    fills = _record(monkeypatch, fastorbits._SiteTable, "fill")
    assert cli.main(["stable-range", "--group", str(path), "--no-branching",
                     "--no-cache"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert [lv["g"] for lv in levels] == [1, 2, 3, 4]
    tables = [table for table, _ in fills]
    assert len({id(t) for t in tables}) == len(tables) > 0
    assert all(t.complete for t in tables)
    assert len(sites) > 2 * len(tables)


def test_single_target_table_that_merges_keys_is_a_move_error(s3,
                                                              monkeypatch):
    # w1 := w2 with w2's sign sends key (w1, w2) to (w2, w2): one target
    # per key, but not a permutation, so the level cannot be move-closed;
    # the failed fill leaves no table behind.  The plan stands in for
    # Braid's at the first puncture pair, in a memo of this test's own
    tc = transposition_class(s3)
    codes, level = build_level(s3, 0, BranchData.from_dict({(tc, 1): 4}))
    bad = MovePlan(2, 0, (), ((0, 1),), ((0, 1),))
    monkeypatch.setattr(fastorbits, "move_plan", lambda *args: bad)
    monkeypatch.setitem(s3.cache, "site tables", {})
    for _ in range(2):
        with pytest.raises(fastorbits.MoveError, match="not move-closed"):
            _sweep(codes, level, [Move("Braid", 0)])
    assert not s3.cache["site tables"][
        ("Braid", 0, 0, 2, codes.alphabet)].done.any()


@pytest.mark.parametrize("name,g,v", [
    ("s3", 3, {}), ("a4", 2, {}), ("s3", 0, {("t", 1): 4, ("t", -1): 2})])
def test_sweep_looks_up_at_most_a_chunk_of_codes_at_a_time(name, g, v,
                                                           monkeypatch):
    G = get_group(name)
    tc = transposition_class(G) if v else None
    codes, level = build_level(G, g, BranchData.from_dict(
        {(tc, o): k for (_, o), k in v.items()}))
    moves = move_catalog(G, g, codes.n)
    whole = _sweep(codes, level, moves)
    monkeypatch.setattr(fastorbits, "FILTER_CHUNK", 7)
    lookups = _record(monkeypatch, fastorbits._Positions, "__call__")
    claimed = []

    def claim(*args, claim=fastorbits._claim):
        claimed.append(claim(*args))
        return claimed[-1]

    monkeypatch.setattr(fastorbits, "_claim", claim)
    seeds, sizes, ids = _sweep(codes, level, moves)
    # the images of several moves share a lookup, and no lookup takes more
    # than a chunk
    assert max(codes.size for _, codes in lookups) <= 7
    assert sum(codes.size for _, codes in lookups) > 7 * len(lookups) // 2
    assert (seeds, sizes) == whole[:2]
    np.testing.assert_array_equal(ids, whole[2])
    # every node but the seeds is claimed once, so no frontier repeats one
    got = np.concatenate(claimed + [np.searchsorted(level, seeds)])
    np.testing.assert_array_equal(np.sort(got), np.arange(level.size))
