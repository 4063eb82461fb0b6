"""Vectorized orbit scan for closed (punctureless) tuple levels.

Genus-g closed levels over a group of order q hold q^{2g} raw words, too
many for the hash-based breadth-first search once 2g gets large.  This
engine encodes a whole level as integer codes, applies every catalog
move as numpy gathers compiled from the same move plans as
moves.apply_move, and sweeps orbits with a boolean visited array.  On a
2-CPU Intel Xeon VM the A4 genus-3 level (742,560 tuples among 12^6
codes) closes in 6.4-7.3 s over three runs.  Only closed tuples are
handled; punctured levels stay small in practice and use the generic
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covers import BranchedTuple
from .groups import FiniteGroup, closure
from .moves import (
    MOVE_SET_TAG,
    MoveError,
    OrbitTable,
    _np_tables,
    canonicalize,
    move_plan,
    word_values,
)

__all__ = ["closed_orbit_scan", "FastOrbitTable", "VEC_STATE_CAP"]

VEC_STATE_CAP = 1 << 28


@dataclass(frozen=True, eq=False)
class FastOrbitTable(OrbitTable):
    """OrbitTable of a closed level whose orbit ids are looked up by
    tuple code, (...((a_1 q + b_1) q + a_2) ...) q + b_g, in the array
    ids (-1 off the level); orbit_of stays empty."""

    group: FiniteGroup
    genus: int
    ids: np.ndarray

    def orbit_id(self, t):
        if t.genus != self.genus or t.punctures:
            raise KeyError("tuple not in this orbit table")
        q = self.group.order
        code = 0
        for a, b in t.handles:
            code = (code * q + a) * q + b
        i = int(self.ids[code])
        if i < 0:
            raise KeyError("tuple not in this orbit table")
        return i


def _decode(codes, q, L):
    cols = []
    rest = codes
    for _ in range(L):
        cols.append((rest % q).astype(np.int64))
        rest = rest // q
    cols.reverse()
    return cols


def _encode(cols, q):
    code = cols[0].astype(np.int64)
    for c in cols[1:]:
        code = code * q + c
    return code


def _applier(G, plan):
    """cols -> cols function running one move plan on numpy columns."""
    q = G.order
    mulf, inv = _np_tables(G)
    steps = [(reg, srcs, None if table is None else np.array(table), word)
             for reg, srcs, table, word in plan.steps]

    def f(cols):
        env = dict(enumerate(cols))
        env[plan.slots] = plan.element
        for reg, srcs, table, word in steps:
            if table is None:
                env[reg] = word_values(word, env, q, mulf, inv)
            elif len(srcs) == 1:
                env[reg] = table[env[srcs[0]]]
            else:
                env[reg] = table[env[srcs[0]] * q + env[srcs[1]]]
        out = list(cols)
        for slot, reg in plan.writes:
            out[slot] = env[reg]
        return out

    return f


def _surjective_mask(G, cols):
    """Boolean mask: do the letters of each state generate G?"""
    q = G.order
    masks = np.zeros(cols[0].shape, dtype=np.int64)
    for c in cols:
        masks |= np.int64(1) << c
    uniq, inverse = np.unique(masks, return_inverse=True)
    ok = np.empty(uniq.shape, dtype=bool)
    memo = {}
    for idx, mval in enumerate(uniq):
        mval = int(mval)
        if mval not in memo:
            elems = [e for e in range(q) if mval >> e & 1]
            memo[mval] = len(closure(G, elems)) == q
        ok[idx] = memo[mval]
    return ok[inverse]


def closed_orbit_scan(G, g, catalog, surjective=True, cap=VEC_STATE_CAP):
    """Partition the whole closed genus-g level into catalog orbits.

    Returns (FastOrbitTable, number of tuples in the level).
    """
    q = G.order
    L = 2 * g
    total = q ** L
    if total > cap:
        raise MoveError(f"closed level of {total} states exceeds cap {cap}")
    if g == 0:
        t = BranchedTuple(G, 0, (), ())
        n_tuples = 1 if (not surjective or q == 1) else 0
        reps = (t,) if n_tuples else ()
        ids = np.zeros(1, dtype=np.int32) if n_tuples else -np.ones(1, np.int32)
        return FastOrbitTable(MOVE_SET_TAG, reps, (1,) * n_tuples, {}, G, 0,
                              ids), n_tuples

    codes = np.arange(total, dtype=np.int64)
    cols = _decode(codes, q, L)
    # relation filter: product of handle commutators is the identity
    mulf, inv = _np_tables(G)
    relator = [r for i in range(0, L, 2) for r in (i, i + 1, ~i, ~(i + 1))]
    mask = word_values(relator, dict(enumerate(cols)), q, mulf, inv) == 0
    if surjective:
        mask &= _surjective_mask(G, cols)
    del cols
    level = codes[mask]
    n_tuples = int(level.size)
    appliers = [_applier(G, move_plan(G, m, g, 0)) for m in catalog]
    visited = np.zeros(total, dtype=bool)
    orbit_id = np.full(total, -1, dtype=np.int32)
    orbits = []  # (min_code, size)
    for seed in level:
        seed = int(seed)
        if visited[seed]:
            continue
        oid = len(orbits)
        visited[seed] = True
        orbit_id[seed] = oid
        frontier = np.array([seed], dtype=np.int64)
        size = 1
        min_code = seed
        while frontier.size:
            fcols = _decode(frontier, q, L)
            new_parts = []
            for f in appliers:
                enc = _encode(f(fcols), q)
                enc = np.unique(enc)
                enc = enc[~visited[enc]]
                if enc.size:
                    visited[enc] = True
                    orbit_id[enc] = oid
                    new_parts.append(enc)
            if new_parts:
                frontier = np.unique(np.concatenate(new_parts))
                size += int(frontier.size)
                mc = int(frontier[0])
                if mc < min_code:
                    min_code = mc
            else:
                frontier = np.array([], dtype=np.int64)
        orbits.append((min_code, size))
    # the level must be move-closed: everything visited is in the level
    if int(visited.sum()) != n_tuples:
        raise MoveError("closed level is not move-closed (catalog/filter bug)")
    # order orbits by representative tuple, remap ids accordingly
    order = sorted(range(len(orbits)), key=lambda i: orbits[i][0])
    remap = np.full(len(orbits), -1, dtype=np.int32)
    for new, old in enumerate(order):
        remap[old] = new
    pos = orbit_id >= 0
    orbit_id[pos] = remap[orbit_id[pos]]
    reps = []
    sizes = []
    for i in order:
        mc, size = orbits[i]
        digits = []
        rest = mc
        for _ in range(L):
            digits.append(rest % q)
            rest //= q
        digits.reverse()
        handles = tuple((digits[2 * k], digits[2 * k + 1]) for k in range(g))
        reps.append(canonicalize(BranchedTuple(G, g, handles, ())))
        sizes.append(size)
    table = FastOrbitTable(MOVE_SET_TAG, tuple(reps), tuple(sizes), {}, G, g,
                           orbit_id)
    return table, n_tuples
