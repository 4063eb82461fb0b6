"""Stabilization, dilation, certificates, and the stable-range prober."""

import pytest

from schur_orbits.covers import BranchData, branch_data, enumerate_tuples, make_tuple
from schur_orbits.fastorbits import level_orbits
from schur_orbits.moves import induced_orbit_map, move_catalog, orbits
from schur_orbits.stabilization import (
    StabilizationError,
    certificate,
    dilate,
    handle_stabilize,
    puncture_stabilize,
    stable_orbits,
    surger_handles,
    u_threshold,
)

from conftest import get_group, transposition_class


def sample_tuple(G, tc, n):
    v = BranchData.from_dict({(tc, 1): n})
    return enumerate_tuples(G, 0, v, surjective=True)[0]


def test_puncture_stabilize_bookkeeping(s3):
    tc = transposition_class(s3)
    t = sample_tuple(s3, tc, 4)
    s = puncture_stabilize(t, tc)
    v = branch_data(t).as_dict()
    w = branch_data(s).as_dict()
    assert w[(tc, 1)] == v.get((tc, 1), 0) + 1
    assert w[(tc, -1)] == v.get((tc, -1), 0) + 1
    assert s.n == t.n + 2
    assert s.relation_product() == 0
    # the appended pair is (x, +1), (x^{-1}, -1)
    (x, o1), (y, o2) = s.punctures[-2:]
    assert o1 == 1 and o2 == -1 and s3.mul[x][y] == 0


def test_puncture_stabilize_rejects_identity(s3):
    t = sample_tuple(s3, transposition_class(s3), 4)
    with pytest.raises(StabilizationError):
        puncture_stabilize(t, s3.class_of[0])


def test_handle_stabilize(s3):
    tc = transposition_class(s3)
    t = sample_tuple(s3, tc, 4)
    s = handle_stabilize(t)
    assert s.genus == t.genus + 1
    assert s.handles[-1] == (0, 0)
    assert branch_data(s) == branch_data(t)


@pytest.mark.parametrize("name", ["s3", "a4", "q8"])
def test_dilate_cardinality(name):
    G = get_group(name)
    # one positive and one negative puncture in some class of order >= 3
    cls = next(c for c, r in enumerate(G.class_reps)
               if r != 0 and G.element_order(r) >= 3)
    x = G.class_reps[cls]
    t = make_tuple(G, 1, [(0, 1)], [(x, 1), (G.inv[x], -1)])
    s = dilate(t)
    w = branch_data(t)
    expected = t.n + sum(
        (G.element_order(G.class_reps[cid]) - 2) * m
        for (cid, sign), m in w.counts if sign == -1
    )
    assert s.n == expected
    assert all(o == 1 for _, o in s.punctures)
    assert s.relation_product() == 0


def test_dilate_fixes_positive_tuples(s3):
    tc = transposition_class(s3)
    t = sample_tuple(s3, tc, 4)
    assert dilate(t) == t


def test_u_threshold_values(s3):
    tc = transposition_class(s3)
    # 3 transpositions, conjugation by one swaps the other two: U = 3*2
    assert u_threshold(s3, tc).as_dict() == {(tc, 1): 6}
    three = next(c for c, r in enumerate(s3.class_reps)
                 if r != 0 and s3.element_order(r) == 3)
    # 2 three-cycles, conjugation by one fixes both: U = 2*1
    assert u_threshold(s3, three).as_dict() == {(three, 1): 2}


def test_certificate_handle_flip(s3):
    cert_at = certificate(s3, (), s3.order, BranchData.from_dict({}))
    cert_past = certificate(s3, (), s3.order + 1, BranchData.from_dict({}))
    assert not cert_at.handle_surjective
    assert cert_past.handle_surjective


def test_certificate_puncture_flip(s3):
    tc = transposition_class(s3)
    u = u_threshold(s3, tc).as_dict()[(tc, 1)]
    at = BranchData.from_dict({(tc, 1): u, (tc, -1): 1})
    past = BranchData.from_dict({(tc, 1): u + 1, (tc, -1): 1})
    assert not certificate(s3, (tc,), 0, at).puncture_surjective[tc]
    assert certificate(s3, (tc,), 0, past).puncture_surjective[tc]


def test_certificate_dilation_witness(s3):
    tc = transposition_class(s3)
    c = certificate(s3, (tc,), 0, BranchData.from_dict({(tc, 1): 4}))
    assert c.dilation_surjective
    assert c.dilation_witness[tc][0] == 4
    c2 = certificate(s3, (tc,), 0, BranchData.from_dict({}))
    assert not c2.dilation_surjective


def test_stabilizations_commute_as_tuple_maps(s3):
    tc = transposition_class(s3)
    t = sample_tuple(s3, tc, 4)
    assert handle_stabilize(puncture_stabilize(t, tc)) == \
        puncture_stabilize(handle_stabilize(t), tc)


def test_round_map_induces_welldefined_orbit_map(s3):
    # the composite (puncture stabilize, then dilate) descends to orbit
    # sets and is surjective between consecutive transposition levels
    tc = transposition_class(s3)
    v4 = BranchData.from_dict({(tc, 1): 4})
    v6 = BranchData.from_dict({(tc, 1): 6})
    lvl4 = enumerate_tuples(s3, 0, v4)
    lvl6 = enumerate_tuples(s3, 0, v6)
    t4 = orbits(lvl4, move_catalog(s3, 0, 4))
    t6 = orbits(lvl6, move_catalog(s3, 0, 6))

    def f(t):
        return dilate(puncture_stabilize(t, tc))

    members = {i: [] for i in range(t4.num_orbits)}
    for t in lvl4:
        members[t4.orbit_id(t)].append(t)
    flags = induced_orbit_map(f, t4, t6, exhaustive_members=members)
    assert flags["surjective"]


def test_stable_orbits_s3_transposition_track(s3):
    tc = transposition_class(s3)
    r = stable_orbits(s3, (tc,), v_seed=BranchData.from_dict({(tc, 1): 4}),
                      g_seed=0)
    assert r.verdict == "empirical-match"
    assert r.stable_count == 1 and r.m_order == 1
    assert [lv["orbits"] for lv in r.levels] == [1, 1, 1]
    assert all(lv["g"] == 0 for lv in r.levels)


def test_stable_orbits_k4_unbranched_track(k4):
    r = stable_orbits(k4, ())
    assert r.verdict == "empirical-match"
    assert r.stable_count == 2 and r.m_order == 2
    assert [lv["orbits"] for lv in r.levels][:4] == [1, 2, 2, 2]
    assert not r.levels[1]["induced_map"]["surjective"]
    assert r.levels[2]["induced_map"]["surjective"]
    assert r.levels[2]["induced_map"]["injective"]


def test_stable_orbits_inconclusive_when_capped(k4):
    r = stable_orbits(k4, (), max_rounds=1)
    assert r.verdict == "inconclusive"


def _entry(g, v, tuples, orbits, puncture, induced=None):
    """One computed level of a stable-range report."""
    entry = {"g": g, "v": v, "tuples": tuples, "orbits": orbits,
             "certificate": {"handle": False, "puncture": puncture,
                             "dilation": True}}
    if induced is not None:
        entry["induced_map"] = {"surjective": induced[0],
                                "injective": induced[1]}
    return entry


S3_LEVELS = [_entry(0, [[[1, 1], 4]], 24, 1, {"1": False}),
             _entry(0, [[[1, 1], 6]], 240, 1, {"1": False}, (True, True))]
K4_LEVELS = [_entry(1, [], 6, 1, {}),
             _entry(2, [], 210, 2, {}, (False, True)),
             _entry(3, [], 3906, 2, {}, (True, True))]


@pytest.mark.parametrize("budget,computed,verdict,count", [
    # n transpositions have 3^(n-1) candidates: 27, 243, 2187 at n = 4, 6, 8
    (243, 2, "empirical-match", 1),
    (27, 1, "inconclusive", None),
])
def test_stable_orbits_skips_a_punctured_level_over_budget(
        s3, budget, computed, verdict, count):
    tc = transposition_class(s3)
    r = stable_orbits(s3, (tc,), v_seed=BranchData.from_dict({(tc, 1): 4}),
                      g_seed=0, enum_budget=budget)
    skipped = {"g": 0, "v": [[[1, 1], 2 * computed + 4]],
               "skipped": "level over budget"}
    assert r.to_json() == {
        "group": s3.digest, "classes": [1], "move_set": "default-catalog-v1",
        "levels": S3_LEVELS[:computed] + [skipped], "stable_count": count,
        "m_order": 1, "m_invariant_factors": [], "verdict": verdict}


@pytest.mark.parametrize("budget,computed,verdict,count", [
    # closed K4 levels walk 5^(g-1) label prefixes: 5, 25, 125 at g = 2, 3, 4
    (25, 3, "empirical-match", 2),
    (5, 2, "inconclusive", None),
])
def test_stable_orbits_skips_a_closed_level_over_the_cap(
        k4, budget, computed, verdict, count):
    r = stable_orbits(k4, (), enum_budget=budget)
    skipped = {"g": computed + 1, "v": [], "skipped": "level over budget"}
    assert r.to_json() == {
        "group": k4.digest, "classes": [], "move_set": "default-catalog-v1",
        "levels": K4_LEVELS[:computed] + [skipped], "stable_count": count,
        "m_order": 2, "m_invariant_factors": [2], "verdict": verdict}


@pytest.mark.parametrize("budget,computed", [(216, 3), (215, 2)])
def test_stable_orbits_maps_the_nodes_of_a_level_within_its_budget(
        q8, budget, computed):
    # Q8 g = 1, 2, 3 with 1, 3, 5 punctures of the central class walk 6,
    # 36, 216 prefixes; the induced map into g = 3 maps the 10 nodes of
    # g = 2, not its 1,920 tuples, so only the level's own budget counts
    c = q8.class_of[1]
    r = stable_orbits(q8, (c,), v_seed=BranchData.from_dict({(c, 1): 1}),
                      g_seed=1, enum_budget=budget)
    assert [lv.get("tuples") for lv in r.levels] == [24, 1920, 129024][:computed] \
        + [None] * (3 - computed)
    assert r.levels[-1].get("skipped") == (None if computed == 3
                                           else "level over budget")
    assert (r.stable_count, r.verdict) == (1, "empirical-match")
    table, _ = level_orbits(q8, 2, BranchData.from_dict({(c, 1): 3}), budget)
    assert table.level.size == 10
    assert sum(map(len, table.members().values())) == 10


def test_stable_orbits_grows_an_empty_level_by_its_branch_data(s3):
    # the seed (t, +1) (t, -1) has no surjective tuple; its round dilates
    # (t, -1) to one (t, +1) and adds two, as on a level with tuples
    tc = transposition_class(s3)
    r = stable_orbits(s3, (tc,),
                      v_seed=BranchData.from_dict({(tc, 1): 1, (tc, -1): 1}))
    assert r.levels[0]["tuples"] == 0
    assert r.levels[1] == _entry(0, [[[1, 1], 4]], 24, 1, {"1": False},
                                 (False, True))
    # a 3-cycle's (c, -1) dilates to two (c, +1); 3-cycles do not
    # generate S3, so the round adds a handle
    c = next(cid for cid, x in enumerate(s3.class_reps)
             if s3.element_order(x) == 3)
    r = stable_orbits(s3, (c,), max_rounds=1,
                      v_seed=BranchData.from_dict({(c, 1): 1, (c, -1): 1}))
    assert [(lv["g"], lv["v"], lv["tuples"]) for lv in r.levels] == [
        (0, [[[c, -1], 1], [[c, 1], 1]], 0), (1, [[[c, 1], 6]], 576)]


def test_stable_orbits_rejects_bad_seed(s3, k4):
    tc = transposition_class(s3)
    with pytest.raises(StabilizationError):
        stable_orbits(k4, (), v_seed=BranchData.from_dict({(1, 1): 2}))
    # one transposition lies outside N, and no round changes its class
    with pytest.raises(StabilizationError, match="outside N"):
        stable_orbits(s3, (tc,), v_seed=BranchData.from_dict({(tc, -1): 1}))


def test_surger_handles(k4):
    t = make_tuple(k4, 1, [(1, 2)], [])
    out = surger_handles(t, [([1], [2])])
    assert out.genus == 0 and out.n == 4
    assert out.relation_product() == 0
    # letters: a, b, a^{-1}, b^{-1} with signs +,+,-,-
    assert [o for _, o in out.punctures] == [1, 1, -1, -1]
    with pytest.raises(StabilizationError):
        surger_handles(t, [([1, 1], [2])])  # 1*1 = 0 != a
    with pytest.raises(StabilizationError):
        surger_handles(t, [])
