"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with -v for one line per criterion; the printed summary also shows
up in failure output.
"""

import json
import random

import pytest

from schur_orbits.branched_schur import schur_diff, torsor_check
from schur_orbits.covers import BranchData, branch_data, enumerate_tuples
from schur_orbits.homology import h2_group, lifting_invariant, m_g_c
from schur_orbits.moves import (
    Move,
    apply_move,
    move_catalog,
    orbits,
)
from schur_orbits.stabilization import (
    dilate,
    handle_stabilize,
    puncture_stabilize,
    stable_orbits,
)

from conftest import GROUP_SPECS, closed_tuple, get_group, transposition_class
from h2_oracle import boundary_matrix, torus_cycle
from intlinalg_oracle import mat_mul
from move_oracle import INVERSE_KIND, word_move
from test_moves import random_tuple


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_move_soundness():
    groups = ["s3", "d4", "q8", "a4", "s4"]
    grid = [(g, n) for g in range(4) for n in range(7)]
    applications = 0
    inverse_checks = 0
    for name in groups:
        G = get_group(name)
        rng = random.Random(len(name) * 1000 + G.order)
        for g, n in grid:
            cat = move_catalog(G, g, n)
            if not cat:
                continue
            for _ in range(9):
                t = random_tuple(G, g, n, rng)
                if t is None:
                    continue
                bd = branch_data(t)
                for m in cat:
                    s = apply_move(m, t)
                    assert s.relation_product() == 0
                    assert branch_data(s) == bd
                    applications += 1
                    if m.kind in INVERSE_KIND:  # the oracle's inverse words
                        assert word_move(Move(INVERSE_KIND[m.kind], m.index),
                                         s) == t
                        inverse_checks += 1
                    elif m.kind == "GlobalConj":
                        inv = Move("GlobalConj", element=G.inv[m.element])
                        assert apply_move(inv, s) == t
                        inverse_checks += 1
    assert applications >= 10_000
    report(1, f"{applications} move applications sound, "
              f"{inverse_checks} inverse identities")


def test_criterion_2_homology_correctness():
    expected = {
        "z2": (), "z3": (), "z4": (), "z5": (), "z6": (),
        "s3": (), "q8": (),
        "k4": (2,), "d4": (2,), "a4": (2,), "s4": (2,),
    }
    for name, want in sorted(expected.items()):
        G = get_group(name)
        got = h2_group(G).presentation.invariant_factors
        assert got == want, (name, got, want)
    for name in ("z2", "z3", "z4", "s3", "k4"):
        G = get_group(name)
        prod = mat_mul(boundary_matrix(G, 2), boundary_matrix(G, 3))
        assert all(all(x == 0 for x in row) for row in prod)
    report(2, "H2 invariant factors match classical tables; d2.d3 = 0")


def test_criterion_3_mgc_sanity():
    for name in sorted(GROUP_SPECS):
        G = get_group(name)
        M, _ = m_g_c(G, ())
        assert M.invariant_factors == h2_group(G).presentation.invariant_factors
    k4 = get_group("k4")
    cid = next(c for c, r in enumerate(k4.class_reps) if r != 0)
    M, _ = m_g_c(k4, (cid,))
    assert M.order() == 1
    report(3, "M(G)_empty = H2(G) on all test groups; "
              "M((Z/2)^2, one class) trivial")


def test_criterion_4_hurwitz_transitivity():
    s3 = get_group("s3")
    tc = transposition_class(s3)
    lvl4 = enumerate_tuples(s3, 0, BranchData.from_dict({(tc, 1): 4}))
    assert len(lvl4) == 24
    tab4 = orbits(lvl4, move_catalog(s3, 0, 4))
    assert tab4.num_orbits == 1
    lvl6 = enumerate_tuples(s3, 0, BranchData.from_dict({(tc, 1): 6}))
    tab6 = orbits(lvl6, move_catalog(s3, 0, 6))
    assert tab6.num_orbits == 1
    report(4, "24 tuples / 1 orbit at 4 transpositions; 1 orbit at 6")


def test_criterion_5_flagship_torsor_cross_check():
    k4 = get_group("k4")
    r = stable_orbits(k4, ())
    assert r.verdict == "certified-match"
    assert r.stable_count == 2 and r.m_order == 2
    lvl = enumerate_tuples(k4, 2, BranchData.from_dict({}))
    tab = orbits(lvl, move_catalog(k4, 2, 0))
    tk4 = torsor_check(tab.representatives, class_ids=())
    assert tk4["passed"]

    s3 = get_group("s3")
    tc = transposition_class(s3)
    r2 = stable_orbits(s3, (tc,), v_seed=BranchData.from_dict({(tc, 1): 4}),
                       g_seed=0)
    assert r2.verdict == "certified-match"
    assert r2.stable_count == 1 and r2.m_order == 1
    lvl2 = enumerate_tuples(s3, 0, BranchData.from_dict({(tc, 1): 4}))
    tab2 = orbits(lvl2, move_catalog(s3, 0, 4))
    ts3 = torsor_check(tab2.representatives, class_ids=(tc,))
    assert ts3["passed"]
    report(5, "stable counts 2 and 1 equal |M(G)_C|; torsor_check passes")


def test_criterion_6_sch_well_definedness():
    # move invariance, 10^3 applications per group
    for name in ("s3", "k4", "q8"):
        G = get_group(name)
        rng = random.Random(G.order)
        level = enumerate_tuples(G, 2, BranchData.from_dict({}),
                                 surjective=False)
        cat = move_catalog(G, 2, 0)
        count = 0
        while count < 1000:
            t = rng.choice(level)
            base = lifting_invariant(t, ())
            for m in cat:
                assert lifting_invariant(apply_move(m, t), ()) == base
                count += 1
    # connect-sum additivity on 10^2 random pairs
    for name in ("s3", "k4"):
        G = get_group(name)
        H2 = h2_group(G)
        rng = random.Random(17)
        closed = enumerate_tuples(G, 1, BranchData.from_dict({}),
                                  surjective=False)
        for _ in range(100):
            s, t = rng.choice(closed), rng.choice(closed)
            st = closed_tuple(G, s.handles + t.handles)
            assert lifting_invariant(st, ()) == \
                H2.presentation.add(lifting_invariant(s, ()),
                                    lifting_invariant(t, ()))
    # genus-1 commuting pairs equal the torus class, exhaustively
    for name in ("z2", "z3", "z4", "z5", "z6", "s3", "k4", "q8", "d4", "a4"):
        G = get_group(name)
        H2 = h2_group(G)
        for a in range(G.order):
            for b in range(G.order):
                if G.mul[a][b] != G.mul[b][a]:
                    continue
                got = lifting_invariant(closed_tuple(G, ((a, b),)), ())
                if a and b:
                    assert got == H2.cycle_class(torus_cycle(G, a, b))
                else:
                    assert got == H2.presentation.zero()
    report(6, "sch move-invariant, connect-sum additive, torus classes match")


def test_criterion_7_stabilization_algebra():
    s3 = get_group("s3")
    tc = transposition_class(s3)
    level = enumerate_tuples(s3, 0, BranchData.from_dict({(tc, 1): 4}))
    for t in level[::4]:
        # v + delta + delta
        s = puncture_stabilize(t, tc)
        v, w = branch_data(t).as_dict(), branch_data(s).as_dict()
        assert w[(tc, 1)] == v.get((tc, 1), 0) + 1
        assert w[(tc, -1)] == v.get((tc, -1), 0) + 1
        # dilation cardinality n + sum (ord - 2) * w(cbar, -1)
        d = dilate(s)
        neg = sum(m for (cid, sign), m in branch_data(s).counts if sign == -1)
        ordc = s3.element_order(s3.class_reps[tc])
        assert d.n == s.n + (ordc - 2) * neg
        # the stabilization square commutes
        assert handle_stabilize(puncture_stabilize(t, tc)) == \
            puncture_stabilize(handle_stabilize(t), tc)
    # schur_diff invariant under p, h, dil
    t, t2 = level[0], level[5]
    base = schur_diff(t, t2).coords
    assert schur_diff(dilate(puncture_stabilize(t, tc)),
                      dilate(puncture_stabilize(t2, tc))).coords == base
    assert schur_diff(handle_stabilize(t), handle_stabilize(t2)).coords == base
    report(7, "branch bookkeeping, dilation cardinality, commuting square, "
              "diff invariance")


def test_criterion_8_certificate_flips():
    # the K4 closed plateau is proved: Lambda takes as many values as
    # there are orbits; on K4 --classes 1 it does not separate the orbits
    k4 = get_group("k4")
    r = stable_orbits(k4, ())
    assert (r.verdict, r.stable_count) == ("certified-match", 2)
    assert all(lv["lambda_values"] == lv["orbits"] for lv in r.levels)
    r = stable_orbits(k4, (k4.class_of[1],))
    assert r.verdict == "mismatch"
    last = r.levels[-1]
    assert (last["orbits"], last["lambda_values"]) == (4, 1)
    report(8, "Lambda certifies K4 closed; K4 with C = the class of 1 "
              "is a mismatch, 4 orbits and 1 Lambda value")


def test_criterion_9_determinism(tmp_path, monkeypatch, capsys):
    from schur_orbits.cli import main

    monkeypatch.setenv("SCHUR_ORBITS_CACHE", str(tmp_path / "cache"))
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps(GROUP_SPECS["k4"]))
    s3 = tmp_path / "s3.json"
    s3.write_text(json.dumps(GROUP_SPECS["s3"]))

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    argv = ["stable-range", "--group", str(k4), "--no-branching"]
    outs = [
        run(argv + ["--threads", "1"]),           # cold cache
        run(argv + ["--threads", "1"]),           # warm cache
        run(argv + ["--threads", "4", "--no-cache"]),
        run(argv + ["--threads", "1", "--no-cache"]),
    ]
    assert len(set(outs)) == 1

    argv = ["orbits", "--group", str(s3), "--genus", "0",
            "--branch", "4 transpositions"]
    outs = [
        run(argv + ["--threads", "1"]),
        run(argv + ["--threads", "1"]),
        run(argv + ["--threads", "4", "--no-cache"]),
    ]
    assert len(set(outs)) == 1
    report(9, "stable-range and orbit reports byte-identical across "
              "threads and cache states")
